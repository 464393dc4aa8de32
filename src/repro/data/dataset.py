"""The numpy-backed categorical dataset.

A :class:`CategoricalDataset` is the paper's database
``U = {U_i}_{i=1..N}`` with ``U_i`` in the joint index set ``I_U``.  We
store records in the natural ``(N, M)`` per-attribute form and convert
to/from joint indices through the schema on demand.
"""

from __future__ import annotations

import numpy as np

from repro.data.backing import record_dtype, validate_in_domain
from repro.data.schema import Schema
from repro.exceptions import DataError, SchemaError


def _immutable(array: np.ndarray) -> bool:
    """Whether no caller can mutate ``array`` through any alias.

    Read-only flags alone are not enough: a read-only *view* of a
    writable base (``base.view()`` + ``setflags``, ``broadcast_to``)
    can still change under the caller's hands.  Walk the base chain;
    every ndarray level must itself be non-writable.  Non-ndarray
    bases (``mmap`` objects under ``np.memmap(mode="r")``) end the
    chain.
    """
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return True


class CategoricalDataset:
    """``N`` records over the ``M`` categorical attributes of a schema.

    Parameters
    ----------
    schema:
        The :class:`~repro.data.schema.Schema` describing the columns.
    records:
        Integer array of shape ``(N, M)``; entry ``[i, j]`` is the
        category index of attribute ``j`` in record ``i``.

    Notes
    -----
    Datasets are immutable value objects -- perturbation mechanisms
    always return a *new* dataset -- and the construction policy makes
    that cheap:

    * integer arrays keep their dtype (compact ``uint8`` records stay
      compact; nothing is silently upcast to ``int64``);
    * a *writable* input array is copied once, so later caller-side
      mutation cannot reach the dataset;
    * a genuinely immutable input array (read-only through its whole
      base chain, e.g. a slice of another dataset's records) is
      adopted as-is -- validated but never copied;
    * non-integer input (nested lists, float arrays) pays exactly one
      conversion to ``int64``.
    """

    def __init__(self, schema: Schema, records):
        raw = np.asarray(records)
        if np.issubdtype(raw.dtype, np.floating) and not np.all(np.isfinite(raw)):
            raise DataError("records contain non-finite values (NaN/inf)")
        if np.issubdtype(raw.dtype, np.integer):
            # The only copy, taken iff the caller could still mutate it
            # (directly, or through a writable base under a read-only
            # view).
            records = raw if _immutable(raw) else raw.copy()
        else:
            records = raw.astype(np.int64)
        if records.ndim != 2:
            raise DataError(f"records must be 2-D (N, M), got shape {records.shape}")
        if records.shape[1] != schema.n_attributes:
            raise DataError(
                f"records have {records.shape[1]} columns but schema has "
                f"{schema.n_attributes} attributes"
            )
        validate_in_domain(schema, records)
        records.setflags(write=False)
        self.schema = schema
        self.records = records

    @classmethod
    def _trusted(cls, schema: Schema, records: np.ndarray) -> "CategoricalDataset":
        """Adopt an internally produced, already-valid record array.

        Skips the domain scan and the anti-aliasing copy of the public
        constructor; callers must hand over a fresh (or read-only)
        integer ``(N, M)`` array they will not mutate.  This is what
        keeps engine outputs and chunk slices zero-copy.
        """
        dataset = cls.__new__(cls)
        records.setflags(write=False)
        dataset.schema = schema
        dataset.records = records
        return dataset

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_joint_indices(cls, schema: Schema, joint_indices) -> "CategoricalDataset":
        """Build a dataset from values in the joint index set ``I_U``.

        ``Schema.decode`` both validates the joint indices and produces
        a fresh compact record array, so the result is adopted directly
        -- no second validation pass, no extra copy.
        """
        decoded = schema.decode(np.asarray(joint_indices), dtype=record_dtype(schema))
        return cls._trusted(schema, decoded)

    @classmethod
    def from_labels(cls, schema: Schema, rows) -> "CategoricalDataset":
        """Build a dataset from rows of category *labels* (strings)."""
        encoded = []
        for i, row in enumerate(rows):
            row = list(row)
            if len(row) != schema.n_attributes:
                raise DataError(
                    f"row {i} has {len(row)} values, expected {schema.n_attributes}"
                )
            try:
                encoded.append([schema[j].index_of(v) for j, v in enumerate(row)])
            except SchemaError as exc:
                raise DataError(f"row {i}: {exc}") from exc
        if not encoded:
            encoded = np.empty((0, schema.n_attributes), dtype=np.int64)
        return cls(schema, encoded)

    # ------------------------------------------------------------------
    # basic shape
    # ------------------------------------------------------------------
    @property
    def n_records(self) -> int:
        """``N`` -- the number of records."""
        return int(self.records.shape[0])

    @property
    def nbytes(self) -> int:
        """Bytes held by the record array (the resident footprint)."""
        return int(self.records.nbytes)

    def __len__(self) -> int:
        return self.n_records

    def __eq__(self, other) -> bool:
        if not isinstance(other, CategoricalDataset):
            return NotImplemented
        return self.schema == other.schema and np.array_equal(self.records, other.records)

    def __repr__(self) -> str:
        return (
            f"CategoricalDataset(n_records={self.n_records}, "
            f"n_attributes={self.schema.n_attributes}, "
            f"joint_size={self.schema.joint_size})"
        )

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def joint_indices(self) -> np.ndarray:
        """Records as values in ``I_U`` (the paper's ``U_i``)."""
        return self.schema.encode(self.records)

    def column(self, attribute) -> np.ndarray:
        """Category indices of one attribute (by name or position)."""
        if isinstance(attribute, str):
            attribute = self.schema.position_of(attribute)
        return self.records[:, attribute]

    def labels(self) -> list[tuple[str, ...]]:
        """Records as tuples of category labels (for display / CSV)."""
        cats = [a.categories for a in self.schema]
        return [
            tuple(cats[j][v] for j, v in enumerate(row)) for row in self.records
        ]

    def to_boolean(self) -> np.ndarray:
        """One-hot booleanization: ``(N, M_b)`` with exactly ``M`` ones per row.

        This is the representation MASK perturbs: each categorical
        attribute ``j`` becomes ``|S^j_U|`` boolean attributes of which
        exactly one is set (paper Section 7, "MASK").
        """
        n_bool = self.schema.n_boolean
        out = np.zeros((self.n_records, n_bool), dtype=np.int8)
        offsets = np.asarray(self.schema.boolean_offsets(), dtype=np.int64)
        cols = self.records + offsets
        out[np.arange(self.n_records)[:, None], cols] = 1
        return out

    # ------------------------------------------------------------------
    # counting
    # ------------------------------------------------------------------
    def joint_counts(self) -> np.ndarray:
        """The paper's ``X``: count of records per joint-domain value.

        Shape ``(|S_U|,)``; ``X[u]`` is the number of records equal to
        ``u``.  This is the vector the miner reconstructs.
        """
        return np.bincount(self.joint_indices(), minlength=self.schema.joint_size).astype(
            np.int64
        )

    def subset_counts(self, positions) -> np.ndarray:
        """Counts over the sub-domain of an attribute subset ``Cs``.

        Shape ``(n_Cs,)`` where ``n_Cs = prod_{j in Cs} |S^j_U|``; used
        during mining passes (paper Section 6).
        """
        sub = self.schema.encode_subset(self.records, positions)
        return np.bincount(sub, minlength=self.schema.subset_size(positions)).astype(
            np.int64
        )

    def value_counts(self, attribute) -> np.ndarray:
        """Per-category counts for a single attribute."""
        if isinstance(attribute, str):
            attribute = self.schema.position_of(attribute)
        card = self.schema.cardinalities[attribute]
        return np.bincount(self.records[:, attribute], minlength=card).astype(np.int64)

    def iter_chunks(self, chunk_size: int):
        """Yield consecutive record slices as datasets of ``<= chunk_size``.

        The streaming substrate: perturbation pipelines and chunked CSV
        writers consume datasets this way so no stage ever has to
        materialise more than one chunk of derived data.
        """
        if chunk_size < 1:
            raise DataError(f"chunk_size must be >= 1, got {chunk_size}")
        for start in range(0, self.n_records, chunk_size):
            # Slices of the read-only record array are adopted as-is,
            # so chunking never duplicates record storage.
            yield CategoricalDataset._trusted(
                self.schema, self.records[start : start + chunk_size]
            )

    def sample(self, size: int, rng: np.random.Generator) -> "CategoricalDataset":
        """Uniform random subsample (without replacement) of ``size`` records."""
        if not 0 <= size <= self.n_records:
            raise DataError(
                f"sample size {size} out of range 0..{self.n_records}"
            )
        idx = rng.choice(self.n_records, size=size, replace=False)
        return CategoricalDataset._trusted(self.schema, self.records[idx])
