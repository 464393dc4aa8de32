"""Packed transaction bitmaps: one bit per record, one row per item.

The representation is *vertical*: where a :class:`CategoricalDataset`
stores ``(N, M)`` category indices, a :class:`TransactionBitmaps` stores
``M_b = sum_j |S^j_U|`` rows of ``ceil(N/64)`` ``uint64`` words -- row
``boolean_offsets[j] + v`` has bit ``i`` set iff record ``i`` takes
value ``v`` on attribute ``j``.  Support counting then never touches
records again: the records matching an itemset are the AND of its
items' rows, and the count is a popcount.

Two properties the counting layer relies on:

* **Zero padding.**  Bits past ``n_records`` in the last word are zero
  in every row, so they never survive an AND and never contribute to a
  popcount.
* **Word-aligned concatenation.**  :meth:`TransactionBitmaps.concatenate`
  merges per-chunk bitmaps by stacking their words side by side.  Each
  chunk keeps its own zero tail, so bit positions no longer equal
  record indices across chunks -- but AND and popcount are oblivious to
  where the zeros sit, so every supported count is identical to packing
  the concatenated records in one shot.  That is what lets the
  streaming pipeline fold chunks into bitmaps without bit-shifting.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.data.backing import validate_in_domain
from repro.data.dataset import CategoricalDataset
from repro.data.schema import Schema, as_integer_array
from repro.exceptions import DataError
from repro.mining.kernels import native

#: Bits per packed word.
WORD_BITS = 64

_WORD_DTYPE = np.uint64

# Fallback popcount for numpy builds without ``np.bitwise_count``
# (added in numpy 2.0): a 256-entry table applied to the byte view.
_BYTE_POPCOUNT = np.array(
    [bin(i).count("1") for i in range(256)], dtype=np.uint8
)

# Module flag (rather than a per-call hasattr) so tests can force the
# table branch and pin it against the builtin on the same inputs.
_HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")

# The table fallback walks the byte view in bounded slabs so its
# intermediate (the gathered per-byte popcounts) stays ~2 MiB no
# matter how large the word array is.
_POPCOUNT_SLAB_BYTES = 1 << 21


def _popcount_words_table(words: np.ndarray, axis) -> np.ndarray:
    """Slabbed table-lookup popcount (numpy builds < 2.0).

    Matches ``np.bitwise_count(words).sum(axis=axis, dtype=int64)``
    exactly -- same reduced shape, same dtype -- but never gathers more
    than a slab of per-byte counts at a time, where the old one-shot
    lookup materialised an intermediate 8x the size of the word array.
    """
    if axis is None:
        flat = words.reshape(-1).view(np.uint8)
        total = 0
        for start in range(0, flat.size, _POPCOUNT_SLAB_BYTES):
            slab = flat[start : start + _POPCOUNT_SLAB_BYTES]
            total += int(_BYTE_POPCOUNT[slab].sum(dtype=np.int64))
        return np.int64(total)
    moved = np.moveaxis(words, axis, -1)
    lead_shape = moved.shape[:-1]
    length = moved.shape[-1]
    flat = np.ascontiguousarray(moved).reshape(-1, length)
    out = np.empty(flat.shape[0], dtype=np.int64)
    row_bytes = max(length * (WORD_BITS // 8), 1)
    step = max(1, _POPCOUNT_SLAB_BYTES // row_bytes)
    for start in range(0, flat.shape[0], step):
        block = flat[start : start + step].view(np.uint8)
        out[start : start + step] = _BYTE_POPCOUNT[block].sum(
            axis=1, dtype=np.int64
        )
    result = out.reshape(lead_shape)
    return result[()] if result.ndim == 0 else result


def popcount_words(words: np.ndarray, axis=None) -> np.ndarray:
    """Number of set bits in an array of packed ``uint64`` words.

    With ``axis=None`` returns the total as a 0-d array; otherwise sums
    popcounts along ``axis`` (e.g. per candidate row).
    """
    words = np.asarray(words, dtype=_WORD_DTYPE)
    if _HAVE_BITWISE_COUNT:
        return np.bitwise_count(words).sum(axis=axis, dtype=np.int64)
    return _popcount_words_table(words, axis)


def pack_bit_rows(bit_rows: np.ndarray) -> np.ndarray:
    """Pack ``(R, N)`` 0/1 rows into ``(R, ceil(N/64))`` ``uint64`` words.

    Any nonzero entry counts as a set bit.  The tail of the last word is
    zero-padded, which keeps AND/popcount exact for any ``N``.
    """
    bit_rows = np.asarray(bit_rows)
    if bit_rows.ndim != 2:
        raise DataError(f"bit rows must be 2-D (R, N), got shape {bit_rows.shape}")
    n_rows, n_bits = bit_rows.shape
    packed = np.packbits(bit_rows, axis=1)
    n_words = (n_bits + WORD_BITS - 1) // WORD_BITS if n_bits else 0
    padded = np.zeros((n_rows, n_words * (WORD_BITS // 8)), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    return padded.view(_WORD_DTYPE)


class TransactionBitmaps:
    """Per-item packed bitmaps of a categorical record set.

    Parameters
    ----------
    schema:
        The :class:`~repro.data.schema.Schema` fixing the item rows.
    n_records:
        How many record bits are meaningful (the rest are zero padding).
    words:
        ``(M_b, n_words)`` ``uint64`` array; use the classmethod
        constructors rather than building this by hand.
    """

    def __init__(self, schema: Schema, n_records: int, words: np.ndarray):
        words = np.asarray(words, dtype=_WORD_DTYPE)
        if words.ndim != 2 or words.shape[0] != schema.n_boolean:
            raise DataError(
                f"words must have shape ({schema.n_boolean}, n_words), "
                f"got {words.shape}"
            )
        words.setflags(write=False)
        self.schema = schema
        self.n_records = int(n_records)
        self.words = words
        # Layout cached as plain lists: row lookups are per-candidate
        # hot-path work and the schema properties rebuild tuples per call.
        self._offsets = list(schema.boolean_offsets())
        self._cards = list(schema.cardinalities)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, schema: Schema, records) -> "TransactionBitmaps":
        """Pack an ``(N, M)`` category-index array (validated here).

        Integer record arrays of any width are consumed as-is -- the
        offset add that builds the scatter indices widens on its own,
        so no up-front ``int64`` conversion copy is taken.
        """
        records = as_integer_array(records)
        if records.ndim != 2 or records.shape[1] != schema.n_attributes:
            raise DataError(
                f"records must have shape (N, {schema.n_attributes}), "
                f"got {records.shape}"
            )
        # Out-of-domain values would silently index a neighbouring
        # attribute's rows (the scatter is offset-based), so reject them
        # here exactly like CategoricalDataset does.
        validate_in_domain(schema, records)
        n_records = records.shape[0]
        bit_rows = np.zeros((schema.n_boolean, n_records), dtype=np.uint8)
        if n_records:
            offsets = np.asarray(schema.boolean_offsets(), dtype=np.int64)
            rows = records + offsets  # (N, M) item-row index per cell
            bit_rows[rows.T, np.arange(n_records)[None, :]] = 1
        return cls(schema, n_records, pack_bit_rows(bit_rows))

    @classmethod
    def from_dataset(cls, dataset: CategoricalDataset) -> "TransactionBitmaps":
        """Pack a dataset (records are already domain-validated)."""
        return cls.from_records(dataset.schema, dataset.records)

    @classmethod
    def from_boolean_matrix(cls, schema: Schema, bits) -> "TransactionBitmaps":
        """Pack an ``(N, M_b)`` boolean matrix (e.g. MASK-perturbed bits).

        Unlike :meth:`from_records` the rows need not be one-hot -- MASK
        flips bits independently, so perturbed rows generally violate
        the one-hot structure.  Row ``r`` of the result is the packed
        column ``r`` of ``bits``.
        """
        bits = np.asarray(bits)
        if bits.ndim != 2 or bits.shape[1] != schema.n_boolean:
            raise DataError(
                f"boolean matrix must have shape (N, {schema.n_boolean}), "
                f"got {bits.shape}"
            )
        return cls(schema, bits.shape[0], pack_bit_rows(bits.T))

    @classmethod
    def concatenate(cls, parts) -> "TransactionBitmaps":
        """Merge per-chunk bitmaps by word-aligned concatenation.

        Equivalent, for every AND/popcount query, to packing the
        concatenated record stream in one shot (see the module
        docstring); used by the pipeline's chunked accumulator.
        """
        parts = list(parts)
        if not parts:
            raise DataError("need at least one bitmap chunk to concatenate")
        schema = parts[0].schema
        for part in parts[1:]:
            if part.schema != schema:
                raise DataError("cannot concatenate bitmaps over different schemas")
        if len(parts) == 1:
            return parts[0]
        words = np.concatenate([part.words for part in parts], axis=1)
        return cls(schema, sum(part.n_records for part in parts), words)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def n_words(self) -> int:
        """Packed words per item row."""
        return int(self.words.shape[1])

    @property
    def nbytes(self) -> int:
        """Memory footprint of the packed words."""
        return int(self.words.nbytes)

    def item_row(self, attribute: int, value: int) -> int:
        """Row index of one item's bitmap (``boolean_offsets`` layout)."""
        if not 0 <= attribute < len(self._offsets):
            raise DataError(f"attribute position {attribute} out of range")
        if not 0 <= value < self._cards[attribute]:
            raise DataError(
                f"value {value} out of domain for attribute {attribute}"
            )
        return self._offsets[attribute] + value

    def itemset_rows(self, itemset) -> list[int]:
        """Row indices of an itemset's items (domain-validated)."""
        offsets, cards = self._offsets, self._cards
        rows = []
        for attr, value in itemset.items:
            if not 0 <= attr < len(offsets) or not 0 <= value < cards[attr]:
                raise DataError(
                    f"item ({attr}, {value}) out of domain for this schema"
                )
            rows.append(offsets[attr] + value)
        return rows

    def itemset_count(self, itemset) -> int:
        """Number of records supporting ``itemset`` (exact).

        Runs the compiled fused AND+popcount kernel when the extension
        is available (identical count, no intermediate bitmap row) and
        the NumPy reduction otherwise.
        """
        rows = self.itemset_rows(itemset)
        if native.available():
            groups = np.asarray([rows], dtype=np.int64)
            return int(native.and_group_counts(self.words, groups)[0])
        return int(popcount_words(np.bitwise_and.reduce(self.words[rows], axis=0)))

    def subset_counts(self, positions) -> np.ndarray:
        """Exact counts over an attribute subset's sub-domain.

        Indexed like :meth:`repro.data.schema.Schema.encode_subset`
        over ``positions`` (C order, first position most significant),
        so the result is interchangeable with
        ``dataset.subset_counts(positions)`` and a
        :class:`~repro.pipeline.JointCountAccumulator`'s -- but
        computed purely from AND + popcount over the subset's item
        rows, without ever encoding joint-domain indices.  That is
        what lets wide-schema pipelines (joint domains beyond any
        materialisable count vector) answer the same marginal queries.

        With the extension available, every cell's AND+popcount runs
        in one threaded kernel call (identical counts, same cell
        ordering).
        """
        positions = [int(p) for p in positions]
        if not positions:
            raise DataError("attribute subset must be non-empty")
        if len(set(positions)) != len(positions):
            raise DataError(f"duplicate attribute positions: {positions}")
        for p in positions:
            if not 0 <= p < len(self._cards):
                raise DataError(f"attribute position {p} out of range")
        cards = [self._cards[p] for p in positions]
        if native.available():
            # Cell rows for the whole sub-domain at once: np.indices
            # enumerates C-order (first position most significant),
            # matching the itertools.product walk below.
            values = np.indices(cards, dtype=np.int64).reshape(len(cards), -1).T
            offsets = np.asarray(
                [self._offsets[p] for p in positions], dtype=np.int64
            )
            return native.and_group_counts(self.words, values + offsets)
        counts = np.empty(int(np.prod(cards)), dtype=np.int64)
        for cell, values in enumerate(itertools.product(*(range(c) for c in cards))):
            rows = [self._offsets[p] + v for p, v in zip(positions, values)]
            words = np.bitwise_and.reduce(self.words[rows], axis=0)
            counts[cell] = popcount_words(words)
        return counts

    def __repr__(self) -> str:
        return (
            f"TransactionBitmaps(n_records={self.n_records}, "
            f"n_rows={self.words.shape[0]}, n_words={self.n_words})"
        )
