"""Support sources: exact counting and per-mechanism estimation.

Apriori (:mod:`repro.mining.apriori`) is written against the small
``SupportSource`` protocol -- ``supports(itemsets) -> array of
fractional supports`` -- so the same miner runs on original data (exact
counts) and on perturbed data (reconstructed estimates), which is
exactly how the paper stages its experiments (Section 7, "Perturbation
Mechanisms": Apriori "with an additional support reconstruction phase
at the end of each pass").

Implementations:

* :class:`ExactSupportCounter` -- true supports on a categorical
  dataset;
* :class:`GammaDiagonalSupportEstimator` -- DET-GD/RAN-GD: observed
  perturbed supports pushed through the Eq.-28 closed-form inverse;
* :class:`MaskSupportEstimator` -- MASK: per-candidate tensor-power
  system over the item bits;
* :class:`CutAndPasteSupportEstimator` -- C&P: per-candidate
  partial-support system.

Every *observed*-support side (exact counting, and the counting pass of
the DET-GD/RAN-GD, MASK and C&P estimators) runs on the packed
AND/popcount kernels of :mod:`repro.mining.kernels`: whole candidate
batches per Apriori level, with the previous level's itemset bitmaps
cached.  MASK and C&P also keep every counted itemset in a
:class:`~repro.mining.kernels.counting.SupersetCounts` memo, from which
a candidate's ``2^k`` pattern counts follow without touching the
bitmaps again.  The kernel layer itself picks the compiled or the NumPy
kernels; both give integer counts identical to a per-subset
``bincount`` (:func:`supports_from_subset_counts`, the tests' oracle),
so supports are bit-identical floats either way.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.cut_and_paste import CutAndPastePerturbation
from repro.baselines.mask import MaskPerturbation
from repro.core.marginal import estimate_subset_supports_batch
from repro.data.dataset import CategoricalDataset
from repro.data.schema import Schema
from repro.exceptions import DataError, MiningError
from repro.mining.kernels import BitmapSupportCounter, TransactionBitmaps
from repro.mining.kernels.counting import MAX_PATTERN_BITS, SupersetCounts


def supports_from_subset_counts(
    schema: Schema, n_records: int, subset_counts, itemsets
) -> np.ndarray:
    """Fractional support of each itemset via shared per-subset counts.

    ``subset_counts(attrs)`` supplies the count vector over an attribute
    subset's sub-domain -- a dataset's ``subset_counts`` for direct
    counting, or a :class:`repro.pipeline.JointCountAccumulator`'s for
    the streaming path.  One lookup per distinct subset is shared by all
    its itemsets.  :class:`repro.pipeline.AccumulatedSupportEstimator`
    counts this way, and over ``dataset.subset_counts`` it is the
    ``bincount`` oracle the bitmap kernels are tested against.
    """
    if n_records == 0:
        raise MiningError("cannot count supports of an empty dataset")
    cache: dict[tuple[int, ...], np.ndarray] = {}
    supports = np.empty(len(itemsets))
    cards = schema.cardinalities
    for i, itemset in enumerate(itemsets):
        attrs = itemset.attributes
        counts = cache.get(attrs)
        if counts is None:
            counts = subset_counts(attrs)
            cache[attrs] = counts
        dims = [cards[a] for a in attrs]
        cell = int(np.ravel_multi_index(itemset.values, dims=dims))
        supports[i] = counts[cell] / n_records
    return supports


def reconstruct_gamma_diagonal_supports(
    schema: Schema, observed: np.ndarray, itemsets, gamma: float
) -> np.ndarray:
    """Eq.-28 closed-form estimates from observed subset supports.

    Shared by the dataset-backed estimator and the streaming
    accumulated-count estimators; one vectorized pass over the whole
    candidate batch (estimates may be negative for rare itemsets).
    """
    itemsets = list(itemsets)
    subset_sizes = np.fromiter(
        (schema.subset_size(itemset.attributes) for itemset in itemsets),
        dtype=np.int64,
        count=len(itemsets),
    )
    return estimate_subset_supports_batch(
        observed, gamma, schema.joint_size, subset_sizes
    )


class ExactSupportCounter:
    """True fractional supports on an unperturbed dataset.

    Counts through the packed AND/popcount kernel
    (:class:`~repro.mining.kernels.BitmapSupportCounter`), packed
    lazily on first use.

    Parameters
    ----------
    dataset:
        The categorical dataset to count over.
    """

    def __init__(self, dataset: CategoricalDataset):
        self.dataset = dataset
        self._bitmap_counter: BitmapSupportCounter | None = None

    def supports(self, itemsets) -> np.ndarray:
        """Fraction of records supporting each itemset."""
        if self._bitmap_counter is None:
            self._bitmap_counter = BitmapSupportCounter.from_dataset(self.dataset)
        return self._bitmap_counter.supports(itemsets)


class GammaDiagonalSupportEstimator:
    """Reconstructed supports for DET-GD and RAN-GD perturbed data.

    Parameters
    ----------
    perturbed:
        The gamma-diagonal-perturbed dataset (still categorical).
    gamma:
        The amplification bound used at perturbation time.  RAN-GD uses
        the same estimator because ``E[Ã]`` equals the deterministic
        matrix (paper Section 4.2).
    """

    def __init__(self, perturbed: CategoricalDataset, gamma: float):
        self.perturbed = perturbed
        self.gamma = float(gamma)
        self._observed = ExactSupportCounter(perturbed)

    def supports(self, itemsets) -> np.ndarray:
        """Eq.-28 closed-form estimates; may be negative for rare sets."""
        itemsets = list(itemsets)
        observed = self._observed.supports(itemsets)
        return reconstruct_gamma_diagonal_supports(
            self.perturbed.schema, observed, itemsets, self.gamma
        )


class _BooleanSupportEstimator:
    """Observed side shared by the MASK and C&P estimators.

    Both reconstruct a candidate from the counts of its ``2^k`` bit
    patterns over the perturbed ``(N, M_b)`` bit matrix.  Each batch is
    counted by a :class:`~repro.mining.kernels.BitmapSupportCounter`
    and recorded in a
    :class:`~repro.mining.kernels.counting.SupersetCounts` memo, which
    then yields the pattern counts.
    """

    def __init__(self, schema: Schema, perturbed_bits: np.ndarray):
        perturbed_bits = np.asarray(perturbed_bits)
        if perturbed_bits.ndim != 2 or perturbed_bits.shape[1] != schema.n_boolean:
            raise DataError(
                f"perturbed bits must have shape (N, {schema.n_boolean}), "
                f"got {perturbed_bits.shape}"
            )
        self.schema = schema
        self.perturbed_bits = perturbed_bits
        bitmaps = TransactionBitmaps.from_boolean_matrix(schema, perturbed_bits)
        self._counter = BitmapSupportCounter(bitmaps)
        self._supersets = SupersetCounts(bitmaps)

    def _observed(self, itemsets: list) -> tuple[list, list]:
        """Bit rows and pattern counts (None when too wide) per itemset.

        Rows are resolved by
        :meth:`~repro.mining.kernels.TransactionBitmaps.itemset_rows`,
        which rejects items outside the schema's domain.
        """
        bitmaps = self._counter.bitmaps
        rows = [bitmaps.itemset_rows(itemset) for itemset in itemsets]
        if itemsets and bitmaps.n_records == 0:
            raise DataError("empty perturbed database")
        narrow = [i for i, r in enumerate(rows) if len(r) <= MAX_PATTERN_BITS]
        patterns = [None] * len(itemsets)
        if narrow:
            counts = self._counter.counts([itemsets[i] for i in narrow])
            # Record the whole batch first: a candidate's subsets may
            # come later in the same batch.
            for i, count in zip(narrow, counts):
                self._supersets.record(rows[i], count)
            for i in narrow:
                patterns[i] = self._supersets.patterns(rows[i])
        return rows, patterns


class MaskSupportEstimator(_BooleanSupportEstimator):
    """Reconstructed supports from MASK-perturbed boolean data.

    Each candidate's pattern counts, from memoised superset counts over
    the packed perturbed bits, go through the operator's tensor-power
    solve, so every estimate equals
    :meth:`~repro.baselines.mask.MaskPerturbation.estimate_itemset_support`,
    the per-candidate column scan that answers candidates wider than
    :data:`~repro.mining.kernels.counting.MAX_PATTERN_BITS` bits.
    """

    def __init__(
        self, schema: Schema, perturbed_bits: np.ndarray, mask: MaskPerturbation
    ):
        super().__init__(schema, perturbed_bits)
        self.mask = mask

    def supports(self, itemsets) -> np.ndarray:
        """Tensor-power reconstruction per candidate (paper Section 7)."""
        itemsets = list(itemsets)
        rows, patterns = self._observed(itemsets)
        n_records = self.perturbed_bits.shape[0]
        estimates = np.empty(len(itemsets))
        for i, observed in enumerate(patterns):
            if observed is None:
                estimates[i] = self.mask.estimate_itemset_support(
                    self.perturbed_bits, rows[i]
                )
                continue
            solved = self.mask.solve_pattern_counts(observed.astype(float))
            estimates[i] = float(solved[-1] / n_records)
        return estimates


class CutAndPasteSupportEstimator(_BooleanSupportEstimator):
    """Reconstructed supports from C&P-perturbed boolean data.

    The partial-support system takes each candidate's intersection-size
    histogram: its pattern counts, from memoised superset counts over
    the packed perturbed bits, folded by the popcount of the pattern
    code with integer adds.  The solve is the operator's, so every
    estimate equals
    :meth:`~repro.baselines.cut_and_paste.CutAndPastePerturbation.estimate_itemset_support`,
    the per-candidate column scan that answers candidates wider than
    :data:`~repro.mining.kernels.counting.MAX_PATTERN_BITS` bits.
    """

    def __init__(
        self,
        schema: Schema,
        perturbed_bits: np.ndarray,
        operator: CutAndPastePerturbation,
    ):
        super().__init__(schema, perturbed_bits)
        self.operator = operator

    def supports(self, itemsets) -> np.ndarray:
        """Partial-support-system reconstruction per candidate."""
        itemsets = list(itemsets)
        rows, patterns = self._observed(itemsets)
        n_records = self.perturbed_bits.shape[0]
        estimates = np.empty(len(itemsets))
        for i, observed in enumerate(patterns):
            if observed is None:
                estimates[i] = self.operator.estimate_itemset_support(
                    self.perturbed_bits, rows[i]
                )
                continue
            k = len(rows[i])
            histogram = np.zeros(k + 1, dtype=np.int64)
            np.add.at(histogram, [code.bit_count() for code in range(1 << k)], observed)
            # The operator's least-squares solve (the matrix is
            # rank-deficient beyond K items).
            solution, *_ = np.linalg.lstsq(
                self.operator.reconstruction_matrix(k),
                histogram.astype(float) / n_records,
                rcond=None,
            )
            estimates[i] = float(solution[k])
        return estimates
