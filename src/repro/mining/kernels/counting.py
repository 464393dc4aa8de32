"""Batched support counting over packed transaction bitmaps.

:class:`BitmapSupportCounter` is the kernel-backed Apriori
``SupportSource``: it answers whole candidate batches with vectorized
AND + popcount and keeps the previous batch's itemset bitmaps cached, so
level-``k`` candidates whose ``(k-1)``-prefix was scored in the previous
Apriori pass cost exactly one AND each.  Itemsets that arrive without a
cached prefix (the first level, or ad-hoc queries) are reduced from
their item rows directly, grouped by length so the reduction is still
batched.

Also here: :class:`SupersetCounts` -- memoised superset popcounts over
bitmap rows and their Möbius transform into exact ``2^k`` pattern
counts, which is how the MASK and C&P estimators' observed side runs on
bitmaps (:func:`pattern_counts` is its one-shot form).
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.exceptions import DataError, MiningError
from repro.mining.kernels import native
from repro.mining.kernels.bitmap import TransactionBitmaps, popcount_words

#: Pattern spaces larger than this are beyond :func:`pattern_counts`:
#: 2^k AND/popcounts (and the 2^k x 2^k tensor-power solve downstream)
#: stop paying off, so the MASK and C&P estimators scan those
#: candidates directly instead.
MAX_PATTERN_BITS = 12


class BitmapSupportCounter:
    """Exact fractional supports via packed bitmaps (a ``SupportSource``).

    Parameters
    ----------
    bitmaps:
        The packed :class:`~repro.mining.kernels.bitmap.TransactionBitmaps`
        (build with :meth:`from_dataset`, or fold chunks through
        :class:`repro.pipeline.BitmapAccumulator`).

    Notes
    -----
    Each batch runs on the compiled threaded kernels when
    :func:`repro.mining.kernels.native.available` is true and on NumPy
    AND + popcount otherwise.  Either way the counts are integers
    identical to a per-subset ``bincount``
    (:func:`repro.mining.counting.supports_from_subset_counts`), so
    supports are bit-identical floats.  The level cache holds only the
    most recent batch's bitmaps: Apriori prefixes always come from the
    immediately preceding level, so older levels can never be parents
    again.
    """

    def __init__(self, bitmaps: TransactionBitmaps):
        self.bitmaps = bitmaps
        self.schema = bitmaps.schema
        self._cache_rows: dict = {}
        self._cache_words: np.ndarray | None = None

    @classmethod
    def from_dataset(cls, dataset: CategoricalDataset) -> "BitmapSupportCounter":
        """Pack a dataset and wrap it in a counter."""
        return cls(TransactionBitmaps.from_dataset(dataset))

    # ------------------------------------------------------------------
    # batched counting
    # ------------------------------------------------------------------
    def counts(self, itemsets) -> np.ndarray:
        """Exact record counts of a candidate batch (``int64`` array).

        One vectorized AND for cache-hit candidates, one grouped
        AND-reduction for the rest; the batch's bitmaps replace the
        cache afterwards.
        """
        itemsets = list(itemsets)
        words = self.bitmaps.words
        batch = np.empty((len(itemsets), self.bitmaps.n_words), dtype=np.uint64)

        single_out, single_rows = [], []
        cached_out, cached_parent, cached_last = [], [], []
        generic_by_length: dict[int, tuple[list, list]] = {}
        for i, itemset in enumerate(itemsets):
            rows = self.bitmaps.itemset_rows(itemset)
            if len(rows) == 1:
                single_out.append(i)
                single_rows.append(rows)
                continue
            parent_row = self._cache_rows.get(itemset.items[:-1])
            if parent_row is not None:
                cached_out.append(i)
                cached_parent.append(parent_row)
                cached_last.append(rows[-1])
            else:
                out, row_lists = generic_by_length.setdefault(
                    len(rows), ([], [])
                )
                out.append(i)
                row_lists.append(rows)

        if native.available():
            # Fused path: each segment's AND lands in ``batch`` (the
            # next level's cache) and its popcount comes back from the
            # same kernel pass -- no second sweep over the words.
            result = np.empty(len(itemsets), dtype=np.int64)
            if single_out:
                result[single_out] = native.and_group_counts(
                    words,
                    np.asarray(single_rows, dtype=np.int64),
                    out_words=batch,
                    out_idx=np.asarray(single_out, dtype=np.int64),
                )
            if cached_out:
                result[cached_out] = native.and_pair_counts(
                    self._cache_words,
                    cached_parent,
                    words,
                    cached_last,
                    out_words=batch,
                    out_idx=cached_out,
                )
            for out, row_lists in generic_by_length.values():
                result[out] = native.and_group_counts(
                    words,
                    np.asarray(row_lists, dtype=np.int64),
                    out_words=batch,
                    out_idx=np.asarray(out, dtype=np.int64),
                )
        else:
            if single_out:
                batch[single_out] = words[np.asarray(single_rows).reshape(-1)]
            if cached_out:
                batch[cached_out] = np.bitwise_and(
                    self._cache_words[cached_parent], words[cached_last]
                )
            for out, row_lists in generic_by_length.values():
                batch[out] = np.bitwise_and.reduce(
                    words[np.asarray(row_lists)], axis=1
                )
            result = popcount_words(batch, axis=1)

        self._cache_rows = {
            itemset.items: i for i, itemset in enumerate(itemsets)
        }
        self._cache_words = batch
        return result

    def supports(self, itemsets) -> np.ndarray:
        """Fraction of records supporting each itemset (exact)."""
        if self.bitmaps.n_records == 0:
            raise MiningError("cannot count supports of an empty dataset")
        return self.counts(itemsets) / self.bitmaps.n_records


class SupersetCounts:
    """Memoised superset counts over the rows of one bitmap set.

    ``m[S]`` -- the number of records with every row of ``S`` set -- is
    kept per row tuple ``S`` (``m[()]`` is the record count).
    :meth:`patterns` turns the ``2^k`` superset counts of a ``k``-row
    set into its exact pattern counts with a superset Möbius transform.
    Callers pass rows in one fixed order (itemset rows are ascending),
    so a subset's key is the same whichever superset asks for it.

    Subsets missing from the memo are filled by walking the subset
    lattice depth-first: each subset costs one AND against its parent's
    bitmap, and only the ``O(k)`` bitmaps on the current path stay live.
    Callers that :meth:`record` the counts they already have skip the
    walk: every proper subset of an Apriori candidate was a candidate at
    an earlier level, so the MASK and C&P estimators, which record each
    candidate's count from :meth:`BitmapSupportCounter.counts`, answer a
    level from the memo alone.

    Parameters
    ----------
    bitmaps:
        The packed rows the counts are over.
    """

    def __init__(self, bitmaps: TransactionBitmaps):
        self.bitmaps = bitmaps
        self._memo: dict[tuple[int, ...], int] = {(): bitmaps.n_records}

    def record(self, rows, count: int) -> None:
        """Remember ``count`` records with every one of ``rows`` set."""
        self._memo[tuple(rows)] = int(count)

    def patterns(self, rows) -> np.ndarray:
        """Exact counts of all ``2^k`` bit patterns over ``k`` rows.

        Pattern code ``sum_i b_i * 2^(k-1-i)`` with ``b_i`` the bit of
        ``rows[i]`` (most significant first), as in
        :func:`pattern_counts`; an ``int64`` array of length ``2^k``.
        """
        rows = tuple(rows)
        k = len(rows)
        # keys[code] is the row tuple of the code's set bits: dropping
        # the lowest set bit drops the last row of the tuple.
        keys = [()] * (1 << k)
        for code in range(1, 1 << k):
            low = code & -code
            keys[code] = keys[code ^ low] + (rows[k - low.bit_length()],)
        memo = self._memo
        if not all(key in memo for key in keys):
            self._fill(rows)
        tensor = np.array([memo[key] for key in keys], dtype=np.int64)
        tensor = tensor.reshape((2,) * k)
        # Möbius over supersets: c[P] = sum_{S >= P} (-1)^{|S \ P|} m[S].
        for axis in range(k):
            lead = (slice(None),) * axis
            tensor[lead + (0,)] -= tensor[lead + (1,)]
        return tensor.reshape(-1)

    def _fill(self, rows: tuple[int, ...]) -> None:
        words = self.bitmaps.words
        count_one = native.popcount_total if native.available() else popcount_words
        memo = self._memo

        def descend(start: int, key: tuple, acc: np.ndarray | None) -> None:
            # ``acc`` is the AND over ``key``'s rows (None for no rows).
            for i in range(start, len(rows)):
                child_key = key + (rows[i],)
                child = words[rows[i]] if acc is None else acc & words[rows[i]]
                if child_key not in memo:
                    memo[child_key] = int(count_one(child))
                descend(i + 1, child_key, child)

        descend(0, (), None)


def pattern_counts(bitmaps: TransactionBitmaps, positions) -> np.ndarray:
    """Exact counts of all ``2^k`` bit patterns over ``k`` bitmap rows.

    Index convention matches
    :meth:`repro.baselines.mask.MaskPerturbation.estimate_pattern_counts`:
    pattern code ``sum_i b_i * 2^(k-1-i)`` with ``b_i`` the bit at
    ``positions[i]`` (most significant first), so index ``2^k - 1`` is
    the all-bits-set itemset count.  A one-shot :class:`SupersetCounts`
    walk (one AND per subset, each popcount on the compiled kernel when
    the extension is available) plus its ``O(k 2^k)`` Möbius transform.
    """
    positions = list(positions)
    k = len(positions)
    if k < 1:
        raise DataError("need at least one bit position")
    if k > MAX_PATTERN_BITS:
        raise DataError(f"pattern space 2^{k} too large for the bitmap kernel")
    return SupersetCounts(bitmaps).patterns(positions)
