"""Dataset persistence: inspectable CSV and the compact ``.frd`` format.

Two formats with complementary jobs:

* **CSV** (:func:`save_csv` / :func:`load_csv` and their chunked
  streaming counterparts) -- a header row of attribute names and
  category *labels* as cell values, directly inspectable and diffable.
* **FRD** (:func:`save_frd` / :func:`open_frd` / :class:`FrdWriter`) --
  the binary columnar format behind the out-of-core pipeline.  Records
  are stored one attribute column at a time, each at its *minimal*
  dtype (:func:`repro.data.backing.column_dtypes`), after a JSON
  header that embeds the full schema.  :func:`open_frd` memory-maps
  the columns, so a :class:`FrdDataset` occupies no record heap at all:
  chunks are assembled on demand from page-cached file views, and the
  multi-worker executor hands its workers nothing but the path and a
  row span per chunk (see :mod:`repro.pipeline.executor`).

FRD layout (version 1, little-endian)::

    bytes 0..7    magic b"FRDv1\\x00\\x00\\x00"
    bytes 8..11   uint32 header length H
    bytes 12..12+H  header JSON: version / n_records / schema /
                    per-column dtype names and absolute byte offsets
    ...           each column's cells, contiguous, 64-byte aligned

Writes are deterministic: the same dataset always produces the same
bytes, so ``.frd`` files can be content-addressed and diffed at the
file level.
"""

from __future__ import annotations

import csv
import json
import os
import struct
from pathlib import Path

import numpy as np

from repro.data.backing import column_dtypes, record_dtype, validate_in_domain
from repro.data.dataset import CategoricalDataset
from repro.data.schema import Attribute, Schema, as_integer_array
from repro.exceptions import DataError
from repro.faultpoints import reach

#: FRD magic bytes (8-byte aligned prefix, version in the name).
FRD_MAGIC = b"FRDv1\x00\x00\x00"

#: Column data is aligned to this many bytes (cache-line / word safe).
_FRD_ALIGN = 64


def save_csv(dataset: CategoricalDataset, path) -> None:
    """Write ``dataset`` to ``path`` as label-valued CSV."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(dataset.schema.names)
        writer.writerows(dataset.labels())


def save_csv_chunks(schema: Schema, chunks, path) -> int:
    """Stream an iterable of chunks to one CSV file.

    Chunks may be :class:`CategoricalDataset` instances (e.g. from
    ``dataset.iter_chunks``) or raw ``(m, M)`` record arrays (what
    ``PerturbationPipeline.perturb_stream`` yields).  Writes the header
    once, then appends every chunk's rows; returns the total number of
    records written.  The streaming counterpart of :func:`save_csv`:
    combined with :func:`iter_csv_chunks` and the perturbation
    pipeline, datasets larger than memory round-trip through disk one
    chunk at a time.
    """
    path = Path(path)
    total = 0
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(schema.names)
        for chunk in chunks:
            if not isinstance(chunk, CategoricalDataset):
                chunk = CategoricalDataset(schema, chunk)
            elif chunk.schema != schema:
                raise DataError("chunk schema does not match the target schema")
            writer.writerows(chunk.labels())
            total += chunk.n_records
    return total


def iter_csv_chunks(schema: Schema, path, chunk_size: int):
    """Yield :class:`CategoricalDataset` chunks of ``<= chunk_size`` rows.

    Reads a label-valued CSV written by :func:`save_csv` /
    :func:`save_csv_chunks` incrementally, so files larger than memory
    can feed the streaming pipeline.  The header is validated exactly
    like :func:`load_csv`.
    """
    if chunk_size < 1:
        raise DataError(f"chunk_size must be >= 1, got {chunk_size}")
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} is empty (no header row)") from None
        if tuple(header) != schema.names:
            raise DataError(
                f"CSV header {tuple(header)} does not match schema {schema.names}"
            )
        rows = []
        for row in reader:
            rows.append(row)
            if len(rows) >= chunk_size:
                yield CategoricalDataset.from_labels(schema, rows)
                rows = []
        if rows:
            yield CategoricalDataset.from_labels(schema, rows)


# ----------------------------------------------------------------------
# FRD: compact columnar binary format
# ----------------------------------------------------------------------
def _schema_to_header(schema: Schema) -> list:
    return [[attr.name, list(attr.categories)] for attr in schema]


def _schema_from_header(spec) -> Schema:
    return Schema(Attribute(name, categories) for name, categories in spec)


def _aligned(offset: int) -> int:
    return (offset + _FRD_ALIGN - 1) // _FRD_ALIGN * _FRD_ALIGN


def _frd_header_bytes(schema: Schema, n_records: int) -> tuple[bytes, list[int]]:
    """Serialised header plus the absolute offset of each column.

    The header length feeds into the offsets and vice versa, so the
    header is rendered twice: once with placeholder offsets to fix its
    length, once for real.  JSON rendering is deterministic (sorted
    keys, no whitespace), which is what makes ``.frd`` bytes stable.
    """
    dtypes = column_dtypes(schema)

    def render(offsets: list[int]) -> bytes:
        header = {
            "version": 1,
            "layout": "columnar",
            "n_records": int(n_records),
            "schema": _schema_to_header(schema),
            "dtypes": [dtype.name for dtype in dtypes],
            "offsets": offsets,
        }
        return json.dumps(header, sort_keys=True, separators=(",", ":")).encode()

    # The offsets depend on the header length and vice versa (digit
    # counts), so iterate to a fixed point; convergence takes 2-3
    # rounds because offset growth is monotone in the header length.
    placeholder = [0] * len(dtypes)
    for _ in range(8):
        body = render(placeholder)
        start = _aligned(len(FRD_MAGIC) + 4 + len(body))
        offsets = []
        for dtype in dtypes:
            offsets.append(start)
            start = _aligned(start + n_records * dtype.itemsize)
        if offsets == placeholder:
            return FRD_MAGIC + struct.pack("<I", len(body)) + body, offsets
        placeholder = offsets
    raise DataError("FRD header offsets failed to converge")  # pragma: no cover


def save_frd(dataset: CategoricalDataset, path) -> int:
    """Write ``dataset`` to ``path`` in the compact ``.frd`` format.

    Returns the number of records written.  Each attribute column is
    stored at its minimal dtype, so the file is typically 8x smaller
    than the equivalent ``int64`` pickle/NPY and can be re-opened as a
    zero-heap memory map with :func:`open_frd`.
    """
    with FrdWriter(dataset.schema, path) as writer:
        writer.write(dataset)
    return dataset.n_records


def save_frd_chunks(schema: Schema, chunks, path) -> int:
    """Stream an iterable of chunks into one ``.frd`` file.

    Chunks may be :class:`CategoricalDataset` instances or raw
    ``(m, M)`` record arrays (what ``PerturbationPipeline.
    perturb_stream`` yields); the total record count need not be known
    up front.  Returns the number of records written.
    """
    with FrdWriter(schema, path) as writer:
        for chunk in chunks:
            writer.write(chunk)
        return writer.n_records


class FrdWriter:
    """Incremental ``.frd`` writer (the streaming back-end of
    :func:`save_frd` / :func:`save_frd_chunks`).

    Because the column extents depend on the final record count, cells
    are spooled to one temporary file per attribute and concatenated
    behind the header on :meth:`close` -- memory stays bounded by one
    chunk however large the stream grows.  Use as a context manager;
    the target file appears atomically-ish at close (partial spool
    files are cleaned up on error).
    """

    def __init__(self, schema: Schema, path):
        self.schema = schema
        self.path = Path(path)
        self._dtypes = column_dtypes(schema)
        self._spools = []
        self._n_records = 0
        self._closed = False
        for j in range(schema.n_attributes):
            spool_path = self.path.parent / f"{self.path.name}.col{j}.tmp"
            self._spools.append(spool_path.open("wb"))

    @property
    def n_records(self) -> int:
        """Records written so far."""
        return self._n_records

    def write(self, chunk) -> None:
        """Append one chunk (dataset or validated ``(m, M)`` array)."""
        if self._closed:
            raise DataError("cannot write to a closed FrdWriter")
        if isinstance(chunk, CategoricalDataset):
            if chunk.schema != self.schema:
                raise DataError("chunk schema does not match the target schema")
            records = chunk.records
        else:
            # Validate in place -- the chunk is only read, so the
            # public constructor's anti-aliasing copy would be waste.
            records = as_integer_array(chunk)
            if records.ndim != 2 or records.shape[1] != self.schema.n_attributes:
                raise DataError(
                    f"chunks must have shape (m, {self.schema.n_attributes}), "
                    f"got {records.shape}"
                )
            validate_in_domain(self.schema, records)
        for j, (spool, dtype) in enumerate(zip(self._spools, self._dtypes)):
            spool.write(np.ascontiguousarray(records[:, j], dtype=dtype).tobytes())
        self._n_records += int(records.shape[0])

    def close(self, abort: bool = False) -> None:
        """Assemble the final file (or, with ``abort``, discard spools).

        Assembly happens in a ``.tmp`` sibling that is atomically
        renamed over the target, so a crash mid-close never leaves a
        truncated file with a valid header at ``path``.
        """
        if self._closed:
            return
        self._closed = True
        try:
            if not abort:
                for spool in self._spools:
                    spool.flush()
                _assemble_frd(
                    self.path,
                    self.schema,
                    self._n_records,
                    [Path(spool.name) for spool in self._spools],
                )
        finally:
            for spool in self._spools:
                spool.close()
                Path(spool.name).unlink(missing_ok=True)

    def __enter__(self) -> "FrdWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(abort=exc_type is not None)


def _assemble_frd(path: Path, schema: Schema, n_records: int, columns) -> None:
    """Assemble column files into one ``.frd`` at ``path``, atomically.

    Shared by :meth:`FrdWriter.close` and :meth:`FrdSpool.checkpoint`:
    the file is built in a ``.tmp`` sibling and ``os.replace``-d over
    the target, so a crash mid-assembly never leaves a truncated file
    with a valid header at ``path``.  ``columns`` are the per-attribute
    cell files, in schema order; only the first ``n_records`` cells of
    each are copied.
    """
    dtypes = column_dtypes(schema)
    staging = path.parent / f"{path.name}.tmp"
    try:
        header, offsets = _frd_header_bytes(schema, n_records)
        with staging.open("wb") as out:
            out.write(header)
            for j, column_path in enumerate(columns):
                out.write(b"\x00" * (offsets[j] - out.tell()))
                remaining = n_records * dtypes[j].itemsize
                with open(column_path, "rb") as column:
                    while remaining > 0:
                        block = column.read(min(1 << 20, remaining))
                        if not block:
                            raise DataError(
                                f"column file {column_path} is shorter than "
                                f"{n_records} records"
                            )
                        out.write(block)
                        remaining -= len(block)
        os.replace(staging, path)
    finally:
        staging.unlink(missing_ok=True)


class FrdSpool:
    """Append-only, crash-recoverable ``.frd`` spool (the service's WAL).

    The always-on perturbation service appends every accepted
    submission batch to one spool per tenant collection.  The layout
    reuses the columnar writer's per-attribute cell files -- one
    ``<path>.colJ.spool`` per attribute, cells at the column's minimal
    dtype -- but keeps them *persistent* and fsyncs them on every
    append, so acknowledged records survive process crashes and power
    loss.  :meth:`checkpoint` assembles the current contents into a
    regular memory-mapped ``.frd`` at ``path`` (atomically, without
    stopping appends).

    Crash recovery
    --------------
    A crash mid-append can leave the per-column files with *unequal*
    record counts (column 0 written, column 3 not yet).  On open, the
    spool truncates every column to the **minimum complete record
    count** across columns -- optionally capped by
    ``expected_records``, the ledger's acknowledged count -- so the
    surviving prefix is exactly the records whose append completed (and
    was acknowledged), in order.  Together with the ledger's
    acknowledge-after-fsync discipline this gives at-most-once
    semantics: an unacknowledged torn tail is dropped, never half-kept.

    Like :class:`FrdDataset`, the spool serves record spans
    (``schema`` / ``n_records`` / ``records(start, stop)``), so
    estimators and miners read it like any dataset.
    """

    def __init__(self, schema: Schema, path, *, expected_records: int | None = None):
        self.schema = schema
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._dtypes = column_dtypes(schema)
        self._dtype = record_dtype(schema)
        self._paths = [
            self.path.parent / f"{self.path.name}.col{j}.spool"
            for j in range(schema.n_attributes)
        ]
        self._n_records = self._recover(expected_records)
        self._handles = [path.open("ab") for path in self._paths]
        self._closed = False

    def _recover(self, expected_records: int | None) -> int:
        """Truncate columns to the common complete-record prefix."""
        complete = []
        for column_path, dtype in zip(self._paths, self._dtypes):
            try:
                size = column_path.stat().st_size
            except FileNotFoundError:
                size = 0
                column_path.touch()
            complete.append(size // dtype.itemsize)
        n = min(complete)
        if expected_records is not None:
            n = min(n, int(expected_records))
        for column_path, dtype in zip(self._paths, self._dtypes):
            target = n * dtype.itemsize
            if column_path.stat().st_size != target:
                with column_path.open("r+b") as handle:
                    handle.truncate(target)
                    handle.flush()
                    os.fsync(handle.fileno())
        return n

    @property
    def n_records(self) -> int:
        """Durable (recovered + appended) record count."""
        return self._n_records

    def __len__(self) -> int:
        return self._n_records

    def append(self, records, *, fsync: bool = True) -> tuple[int, int]:
        """Append one batch; returns its ``(start, stop)`` row span.

        ``records`` is a dataset or a raw ``(m, M)`` array (validated
        against the schema).  Every column is written and -- by default
        -- fsynced before the call returns; the caller acknowledges the
        batch (and charges the ledger) only after that, which is what
        makes recovery's minimum-prefix rule sound.
        """
        if self._closed:
            raise DataError("cannot append to a closed FrdSpool")
        if isinstance(records, CategoricalDataset):
            if records.schema != self.schema:
                raise DataError("batch schema does not match the spool schema")
            records = records.records
        else:
            records = as_integer_array(records)
            if records.ndim != 2 or records.shape[1] != self.schema.n_attributes:
                raise DataError(
                    f"batches must have shape (m, {self.schema.n_attributes}), "
                    f"got {records.shape}"
                )
            validate_in_domain(self.schema, records)
        for j, (handle, dtype) in enumerate(zip(self._handles, self._dtypes)):
            if j == 1:
                # Crash-recovery test hook: a process killed here has
                # written column 0 but not the rest, the exact torn
                # state _recover's minimum-prefix rule must drop.
                reach("spool:mid-append")
            handle.write(np.ascontiguousarray(records[:, j], dtype=dtype).tobytes())
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        start = self._n_records
        self._n_records += int(records.shape[0])
        return start, self._n_records

    def records(self, start: int, stop: int) -> np.ndarray:
        """Assemble the ``[start, stop)`` span as an ``(m, M)`` array."""
        start = max(0, int(start))
        stop = min(self._n_records, int(stop))
        out = np.empty((max(0, stop - start), self.schema.n_attributes), self._dtype)
        for handle in self._handles:
            handle.flush()
        for j, (column_path, dtype) in enumerate(zip(self._paths, self._dtypes)):
            out[:, j] = np.fromfile(
                column_path,
                dtype=dtype,
                count=max(0, stop - start),
                offset=start * dtype.itemsize,
            )
        return out

    def to_dataset(self) -> CategoricalDataset:
        """Materialise the spooled records as an in-RAM compact dataset."""
        records = self.records(0, self._n_records)
        records.setflags(write=False)
        return CategoricalDataset._trusted(self.schema, records)

    def checkpoint(self) -> Path:
        """Assemble the spool into a regular ``.frd`` file at ``path``.

        Atomic (staging + rename) and non-disruptive: the spool keeps
        accepting appends afterwards.  Returns the ``.frd`` path, which
        :func:`open_frd` then memory-maps like any other dataset.
        """
        if self._closed:
            raise DataError("cannot checkpoint a closed FrdSpool")
        for handle in self._handles:
            handle.flush()
        _assemble_frd(self.path, self.schema, self._n_records, self._paths)
        return self.path

    def close(self) -> None:
        """Flush and close the column files (spools stay on disk)."""
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            handle.flush()
            handle.close()

    def __enter__(self) -> "FrdSpool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"FrdSpool(path={str(self.path)!r}, n_records={self._n_records}, "
            f"n_attributes={self.schema.n_attributes})"
        )


class FrdDataset:
    """A memory-mapped ``.frd`` dataset (see :func:`open_frd`).

    Serves record spans (``records(start, stop)``) without ever
    materialising the records on the heap: each attribute column is an
    ``np.memmap`` view into the file, and chunk assembly copies only
    the requested span at the schema's compact cell dtype.
    """

    def __init__(self, path, schema: Schema | None = None):
        self.path = Path(path)
        with self.path.open("rb") as handle:
            magic = handle.read(len(FRD_MAGIC))
            if magic != FRD_MAGIC:
                raise DataError(f"{self.path} is not an FRD file (bad magic)")
            (header_len,) = struct.unpack("<I", handle.read(4))
            try:
                header = json.loads(handle.read(header_len).decode())
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise DataError(f"{self.path} has a corrupt FRD header") from exc
        if header.get("version") != 1 or header.get("layout") != "columnar":
            raise DataError(f"{self.path}: unsupported FRD version/layout")
        file_schema = _schema_from_header(header["schema"])
        if schema is not None and file_schema != schema:
            raise DataError(
                f"{self.path} holds schema {file_schema.names}, "
                f"expected {schema.names}"
            )
        self.schema = file_schema
        self._n_records = int(header["n_records"])
        self._dtype = record_dtype(self.schema)
        self._columns = []
        for j, (dtype_name, offset) in enumerate(
            zip(header["dtypes"], header["offsets"])
        ):
            if self._n_records == 0:
                self._columns.append(np.empty(0, dtype=np.dtype(dtype_name)))
                continue
            self._columns.append(
                np.memmap(
                    self.path,
                    dtype=np.dtype(dtype_name),
                    mode="r",
                    offset=int(offset),
                    shape=(self._n_records,),
                )
            )

    @property
    def n_records(self) -> int:
        """``N`` -- the number of records in the file."""
        return self._n_records

    @property
    def dtype(self) -> np.dtype:
        """Cell dtype of assembled record chunks (the compact uniform one)."""
        return self._dtype

    def __len__(self) -> int:
        return self._n_records

    def column(self, attribute) -> np.ndarray:
        """Zero-copy memory-mapped view of one attribute column."""
        if isinstance(attribute, str):
            attribute = self.schema.position_of(attribute)
        return self._columns[attribute]

    def records(self, start: int, stop: int) -> np.ndarray:
        """Assemble the ``[start, stop)`` span as an ``(m, M)`` array.

        Copies exactly ``(stop - start) * M`` compact cells from the
        mapped columns -- the only record bytes that ever reach the
        heap.
        """
        start = max(0, int(start))
        stop = min(self._n_records, int(stop))
        out = np.empty((max(0, stop - start), self.schema.n_attributes), self._dtype)
        for j, column in enumerate(self._columns):
            out[:, j] = column[start:stop]
        return out

    def iter_chunks(self, chunk_size: int):
        """Yield consecutive ``(m, M)`` record arrays of ``<= chunk_size``."""
        if chunk_size < 1:
            raise DataError(f"chunk_size must be >= 1, got {chunk_size}")
        for start in range(0, self._n_records, chunk_size):
            yield self.records(start, start + chunk_size)

    def to_dataset(self) -> CategoricalDataset:
        """Materialise the whole file as an in-RAM compact dataset.

        The records are *validated* on the way in (file bytes are not
        trusted), but not re-copied.
        """
        records = self.records(0, self._n_records)
        records.setflags(write=False)
        return CategoricalDataset(self.schema, records)

    def __repr__(self) -> str:
        return (
            f"FrdDataset(path={str(self.path)!r}, n_records={self._n_records}, "
            f"n_attributes={self.schema.n_attributes})"
        )


def open_frd(path, schema: Schema | None = None) -> FrdDataset:
    """Open a ``.frd`` file as a memory-mapped :class:`FrdDataset`.

    With ``schema`` given, the file's embedded schema must match
    exactly (like the CSV loaders).  The handle feeds every streaming
    API that accepts a dataset -- ``iter_record_chunks``,
    ``PerturbationPipeline.accumulate``, ``mine_stream`` -- without
    loading the records into memory.
    """
    return FrdDataset(path, schema=schema)


def load_csv(schema: Schema, path) -> CategoricalDataset:
    """Read a label-valued CSV written by :func:`save_csv`.

    The header must match the schema's attribute names in order; every
    cell must be a known category label.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} is empty (no header row)") from None
        if tuple(header) != schema.names:
            raise DataError(
                f"CSV header {tuple(header)} does not match schema {schema.names}"
            )
        rows = list(reader)
    return CategoricalDataset.from_labels(schema, rows)
