"""Tests for repro.data.io (CSV round-tripping, the binary FRD format)."""

import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.backing import column_dtypes, record_dtype
from repro.data.dataset import CategoricalDataset
from repro.data.io import (
    FRD_MAGIC,
    FrdWriter,
    _frd_header_bytes,
    load_csv,
    open_frd,
    save_csv,
    save_frd,
    save_frd_chunks,
)
from repro.data.schema import Attribute, Schema
from repro.exceptions import DataError, FrappError


class TestRoundTrip:
    def test_roundtrip_preserves_dataset(self, tiny_dataset, tmp_path):
        path = tmp_path / "tiny.csv"
        save_csv(tiny_dataset, path)
        loaded = load_csv(tiny_dataset.schema, path)
        assert loaded == tiny_dataset

    def test_file_is_label_valued(self, tiny_dataset, tmp_path):
        path = tmp_path / "tiny.csv"
        save_csv(tiny_dataset, path)
        text = path.read_text()
        assert text.splitlines()[0] == "color,size"
        assert "red" in text and "blue" in text

    def test_empty_dataset_roundtrip(self, tiny_schema, tmp_path):
        import numpy as np

        from repro.data.dataset import CategoricalDataset

        empty = CategoricalDataset(tiny_schema, np.empty((0, 2), dtype=int))
        path = tmp_path / "empty.csv"
        save_csv(empty, path)
        assert load_csv(tiny_schema, path).n_records == 0


class TestLoadValidation:
    def test_header_mismatch(self, tiny_dataset, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header\nred,s\n")
        with pytest.raises(DataError):
            load_csv(tiny_dataset.schema, path)

    def test_unknown_label(self, tiny_schema, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("color,size\npurple,s\n")
        with pytest.raises(DataError):
            load_csv(tiny_schema, path)

    def test_empty_file(self, tiny_schema, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_csv(tiny_schema, path)


# ----------------------------------------------------------------------
# FRD: the compact columnar binary format
# ----------------------------------------------------------------------
class TestFrdRoundTrip:
    def test_roundtrip_preserves_dataset(self, tiny_dataset, tmp_path):
        path = tmp_path / "tiny.frd"
        save_frd(tiny_dataset, path)
        frd = open_frd(path, schema=tiny_dataset.schema)
        assert frd.n_records == tiny_dataset.n_records
        assert frd.schema == tiny_dataset.schema
        assert frd.to_dataset() == tiny_dataset

    def test_columns_stored_at_minimal_dtype(self, tiny_dataset, tmp_path):
        path = tmp_path / "tiny.frd"
        save_frd(tiny_dataset, path)
        frd = open_frd(path)
        for j, dtype in enumerate(column_dtypes(tiny_dataset.schema)):
            assert frd.column(j).dtype == dtype
            assert np.array_equal(frd.column(j), tiny_dataset.records[:, j])
        assert frd.dtype == record_dtype(tiny_dataset.schema)

    def test_iter_chunks_byte_equality(self, tiny_dataset, tmp_path):
        path = tmp_path / "tiny.frd"
        save_frd(tiny_dataset, path)
        chunks = list(open_frd(path).iter_chunks(3))
        assert [c.shape[0] for c in chunks] == [3, 3, 2]
        rebuilt = np.concatenate(chunks, axis=0)
        assert rebuilt.tobytes() == (
            tiny_dataset.records.astype(record_dtype(tiny_dataset.schema)).tobytes()
        )

    def test_writes_are_deterministic(self, tiny_dataset, tmp_path):
        a, b = tmp_path / "a.frd", tmp_path / "b.frd"
        save_frd(tiny_dataset, a)
        save_frd(tiny_dataset, b)
        assert a.read_bytes() == b.read_bytes()

    def test_streaming_writer_unknown_extent(self, tiny_dataset, tmp_path):
        path = tmp_path / "streamed.frd"
        written = save_frd_chunks(
            tiny_dataset.schema, tiny_dataset.iter_chunks(3), path
        )
        assert written == tiny_dataset.n_records
        assert open_frd(path).to_dataset() == tiny_dataset
        # Chunk boundaries leave no trace in the file.
        whole = tmp_path / "whole.frd"
        save_frd(tiny_dataset, whole)
        assert path.read_bytes() == whole.read_bytes()

    def test_writer_accepts_raw_arrays_and_validates(self, tiny_schema, tmp_path):
        path = tmp_path / "raw.frd"
        with FrdWriter(tiny_schema, path) as writer:
            writer.write(np.array([[0, 0], [1, 2]]))
        assert open_frd(path).n_records == 2
        with pytest.raises(DataError):
            with FrdWriter(tiny_schema, tmp_path / "bad.frd") as writer:
                writer.write(np.array([[0, 99]]))

    def test_empty_dataset_roundtrip(self, tiny_schema, tmp_path):
        empty = CategoricalDataset(tiny_schema, np.empty((0, 2), dtype=int))
        path = tmp_path / "empty.frd"
        save_frd(empty, path)
        frd = open_frd(path)
        assert frd.n_records == 0
        assert list(frd.iter_chunks(4)) == []
        assert frd.to_dataset() == empty

    def test_spool_files_cleaned_up(self, tiny_dataset, tmp_path):
        path = tmp_path / "tiny.frd"
        save_frd(tiny_dataset, path)
        assert [p.name for p in tmp_path.iterdir()] == ["tiny.frd"]


class TestFrdValidation:
    def test_bad_magic_rejected(self, tiny_schema, tmp_path):
        path = tmp_path / "not.frd"
        path.write_bytes(b"definitely not an FRD file")
        with pytest.raises(DataError):
            open_frd(path)

    def test_corrupt_header_rejected(self, tiny_dataset, tmp_path):
        path = tmp_path / "corrupt.frd"
        save_frd(tiny_dataset, path)
        blob = bytearray(path.read_bytes())
        blob[len(FRD_MAGIC) + 4] ^= 0xFF  # flip a header byte
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError):
            open_frd(path)

    def test_schema_mismatch_rejected(self, tiny_dataset, survey_schema, tmp_path):
        path = tmp_path / "tiny.frd"
        save_frd(tiny_dataset, path)
        with pytest.raises(DataError):
            open_frd(path, schema=survey_schema)

    def test_out_of_domain_file_values_caught(self, tiny_dataset, tmp_path):
        path = tmp_path / "tampered.frd"
        save_frd(tiny_dataset, path)
        blob = bytearray(path.read_bytes())
        blob[-1] = 250  # last cell of the last column: size index 250 >= 3
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError):
            open_frd(path).to_dataset()


def _split_frd(blob: bytes) -> tuple[dict, bytes]:
    """An ``.frd``'s parsed header and every byte after it."""
    (length,) = struct.unpack("<I", blob[len(FRD_MAGIC) : len(FRD_MAGIC) + 4])
    end = len(FRD_MAGIC) + 4 + length
    return json.loads(blob[len(FRD_MAGIC) + 4 : end]), blob[end:]


def _reframe(header, tail: bytes) -> bytes:
    """``header`` rendered like the writer's, framed, then ``tail``."""
    body = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return FRD_MAGIC + struct.pack("<I", len(body)) + body + tail


#: Marks a header field an edit removes.
_DROP = object()


def _edit(**fields):
    """A header edit: drop a field, call a function on it, or set it."""

    def apply(header):
        header = dict(header)
        for key, value in fields.items():
            if value is _DROP:
                header.pop(key)
            else:
                header[key] = value(header[key]) if callable(value) else value
        return header

    return apply


class TestFrdHeaderFailsClosed:
    """Every header the writer would not write for its own schema and
    record count, and every file of the wrong length, is a DataError."""

    @pytest.mark.parametrize(
        "edit",
        [
            _edit(dtypes=lambda d: d[:-1], offsets=lambda o: o[:-1]),
            _edit(schema=_DROP),
            _edit(dtypes=lambda d: ["uint9"] + d[1:]),
            _edit(n_records=-1),
            _edit(n_records=8.0),
            _edit(n_records="8"),
            _edit(n_records=True),
            _edit(schema=lambda spec: [["color"]] + spec[1:]),
            _edit(schema=lambda spec: [7] + spec[1:]),
            _edit(schema=lambda spec: [["color", "rb"]] + spec[1:]),
            _edit(offsets=lambda o: [o[0] + 64] + o[1:]),
            lambda header: [header],
        ],
        ids=["short-dtypes-and-offsets", "no-schema", "bad-dtype-name",
             "negative-records", "float-records", "string-records",
             "bool-records", "schema-entry-without-categories",
             "schema-entry-not-a-pair", "categories-as-a-string",
             "moved-offset", "not-an-object"],
    )
    def test_edited_header_raises(self, tiny_dataset, tmp_path, edit):
        path = tmp_path / "edited.frd"
        save_frd(tiny_dataset, path)
        header, tail = _split_frd(path.read_bytes())
        path.write_bytes(_reframe(edit(header), tail))
        with pytest.raises(DataError):
            open_frd(path)

    @pytest.mark.parametrize(
        "cut", [len(FRD_MAGIC), len(FRD_MAGIC) + 2], ids=["no-length", "half-length"]
    )
    def test_truncated_length_prefix_raises(self, tiny_dataset, tmp_path, cut):
        path = tmp_path / "cut.frd"
        save_frd(tiny_dataset, path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(DataError):
            open_frd(path)

    @pytest.mark.parametrize("n_records", [9, 10**30], ids=["one-more", "oversized"])
    def test_record_count_past_the_file_raises(self, tiny_dataset, tmp_path, n_records):
        """A header consistent in itself, but the columns are not there."""
        path = tmp_path / "long.frd"
        save_frd(tiny_dataset, path)
        _, tail = _split_frd(path.read_bytes())
        header, _ = _frd_header_bytes(tiny_dataset.schema, n_records)
        path.write_bytes(header + tail)
        with pytest.raises(DataError):
            open_frd(path)

    @pytest.mark.parametrize("change", [-1, 1], ids=["truncated", "trailing-byte"])
    def test_file_of_the_wrong_length_raises(self, tiny_dataset, tmp_path, change):
        path = tmp_path / "sized.frd"
        save_frd(tiny_dataset, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-1] if change < 0 else blob + b"\x00")
        with pytest.raises(DataError):
            open_frd(path)


#: The file the mutation property edits: a 5-category column and a
#: 300-category one (uint16 cells), 40 records.
_MUTATED_SCHEMA = Schema(
    [
        Attribute("a", [f"a{j}" for j in range(5)]),
        Attribute("b", [str(j) for j in range(300)]),
    ]
)
_MUTATED_RECORDS = np.random.default_rng(5).integers(0, [5, 300], size=(40, 2))


def _written_frd() -> bytes:
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "written.frd"
        save_frd(CategoricalDataset(_MUTATED_SCHEMA, _MUTATED_RECORDS), path)
        return path.read_bytes()


_WRITTEN = _written_frd()
_HEADER, _TAIL = _split_frd(_WRITTEN)

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _near(value):
    """Values one small edit away from a header field's own value."""
    if isinstance(value, int):
        return st.sampled_from(
            [value - 1, value + 1, -value, 2 * value, float(value), str(value)]
        )
    if isinstance(value, list) and value:
        return st.sampled_from(
            [value[:-1], value + value[-1:], value[1:], value[::-1], []]
        ) | st.builds(
            lambda i, item: value[:i] + [item] + value[i + 1 :],
            st.integers(0, len(value) - 1),
            _JSON | st.sampled_from(value),
        )
    return st.just(value)


_FIELD_EDITS = st.sampled_from(sorted(_HEADER) + ["extra"]).flatmap(
    lambda key: st.tuples(
        st.just(key),
        st.just(_DROP) | _JSON | _near(_HEADER.get(key)),
    )
)
_MUTATIONS = st.one_of(
    st.lists(
        st.tuples(st.integers(0, _HEADER["offsets"][0] - 1), st.integers(0, 255)),
        min_size=1,
        max_size=3,
    ).map(lambda flips: ("bytes", flips)),
    st.integers(0, len(_WRITTEN) + 8).map(lambda size: ("resize", size)),
    st.integers(0, 2**32 - 1).map(lambda length: ("length", length)),
    _FIELD_EDITS.map(lambda edit: ("field", edit)),
)


def _mutate(mutation) -> bytes:
    kind, arg = mutation
    if kind == "bytes":
        blob = bytearray(_WRITTEN)
        for position, value in arg:
            blob[position] = value
        return bytes(blob)
    if kind == "resize":
        return _WRITTEN[:arg] + b"\x00" * max(0, arg - len(_WRITTEN))
    if kind == "length":
        return FRD_MAGIC + struct.pack("<I", arg) + _WRITTEN[len(FRD_MAGIC) + 4 :]
    key, value = arg
    header = dict(_HEADER)
    if value is _DROP:
        header.pop(key, None)
    else:
        header[key] = value
    return _reframe(header, _TAIL)


@settings(max_examples=150, deadline=None)
@given(mutation=_MUTATIONS)
def test_mutated_frd_headers_fail_closed(mutation):
    """A mutated header raises a typed error, or the file still reads
    back exactly the records written."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "mutated.frd"
        path.write_bytes(_mutate(mutation))
        try:
            frd = open_frd(path)
        except FrappError:
            return
        assert frd.n_records == len(_MUTATED_RECORDS)
        np.testing.assert_array_equal(frd.records(0, frd.n_records), _MUTATED_RECORDS)
