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
* :class:`GammaDiagonalSupportEstimator` -- DET-GD/RAN-GD on a
  materialised perturbed dataset: observed perturbed supports pushed
  through the Eq.-28 closed-form inverse (the mechanisms' own
  ``build_estimator`` accumulates instead, see
  :class:`repro.pipeline.AccumulatedSupportEstimator`);
* :class:`MaskSupportEstimator` -- MASK: the tensor-power system over
  the item bits, solved in closed form for all candidates of one length
  at once;
* :class:`CutAndPasteSupportEstimator` -- C&P: the partial-support
  system, one cached minimum-norm row per length applied to all its
  candidates at once.

Every *observed*-support side here (exact counting, and the counting
pass of the dataset-backed DET-GD/RAN-GD, MASK and C&P estimators) runs
on the packed AND/popcount kernels of :mod:`repro.mining.kernels`:
whole candidate batches per Apriori level, with the previous level's
itemset bitmaps cached.  MASK and C&P also keep every counted itemset in a
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
        supports[i] = counts[itemset.cell(cards)] / n_records
    return supports


def reconstruct_gamma_diagonal_supports(
    schema: Schema, observed: np.ndarray, itemsets, gamma: float
) -> np.ndarray:
    """Eq.-28 closed-form estimates from observed subset supports.

    Shared by the dataset-backed estimator and the streaming
    accumulated-count estimators; one vectorized pass over the whole
    candidate batch (estimates may be negative for rare itemsets).
    ``schema.subset_size`` runs once per distinct attribute set.
    """
    attributes = [itemset.attributes for itemset in itemsets]
    sizes = {attrs: schema.subset_size(attrs) for attrs in dict.fromkeys(attributes)}
    subset_sizes = np.array([sizes[attrs] for attrs in attributes], dtype=np.int64)
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
    then yields the pattern counts, stacked into one block per
    candidate length.  Candidates wider than
    :data:`~repro.mining.kernels.counting.MAX_PATTERN_BITS` bits go to
    the operator's per-itemset column scan instead.
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

    def _estimates(self, itemsets, solve, scan) -> np.ndarray:
        """One ``solve(block)`` per candidate length, ``scan`` if wide.

        ``block`` is the ``(c, 2^k)`` ``int64`` pattern counts of the
        batch's ``c`` narrow ``k``-bit candidates; ``solve`` returns
        their ``c`` estimates.  Rows are resolved by
        :meth:`~repro.mining.kernels.TransactionBitmaps.itemset_rows`,
        which rejects items outside the schema's domain.
        """
        itemsets = list(itemsets)
        bitmaps = self._counter.bitmaps
        rows = [bitmaps.itemset_rows(itemset) for itemset in itemsets]
        if itemsets and bitmaps.n_records == 0:
            raise DataError("empty perturbed database")
        narrow = [i for i, r in enumerate(rows) if len(r) <= MAX_PATTERN_BITS]
        by_length: dict[int, list[int]] = {}
        if narrow:
            counts = self._counter.counts([itemsets[i] for i in narrow])
            # Record the whole batch first: a candidate's subsets may
            # come later in the same batch.
            for i, count in zip(narrow, counts):
                self._supersets.record(rows[i], count)
                by_length.setdefault(len(rows[i]), []).append(i)
        estimates = np.empty(len(itemsets))
        for i, r in enumerate(rows):
            if len(r) > MAX_PATTERN_BITS:
                estimates[i] = scan(self.perturbed_bits, r)
        for index in by_length.values():
            block = np.array([self._supersets.patterns(rows[i]) for i in index])
            estimates[index] = solve(block)
        return estimates


class MaskSupportEstimator(_BooleanSupportEstimator):
    """Reconstructed supports from MASK-perturbed boolean data.

    The pattern counts of all candidates of one length, from memoised
    superset counts over the packed perturbed bits, go through one call
    of the operator's closed-form tensor-power solve, so a level costs
    one solve per candidate length and no LAPACK call.  That solve
    treats every row as it would alone, so every estimate equals
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
        """Tensor-power reconstruction, one solve per candidate length."""
        n_records = self.perturbed_bits.shape[0]

        def solve(block: np.ndarray) -> np.ndarray:
            return self.mask.solve_pattern_counts(block.astype(float))[:, -1] / n_records

        return self._estimates(itemsets, solve, self.mask.estimate_itemset_support)


class CutAndPasteSupportEstimator(_BooleanSupportEstimator):
    """Reconstructed supports from C&P-perturbed boolean data.

    The partial-support system takes each candidate's intersection-size
    histogram: its pattern counts, from memoised superset counts over
    the packed perturbed bits, folded by the popcount of the pattern
    code with one integer matmul per candidate length.  All candidates
    of one length then go through one call of the operator's
    :meth:`~repro.baselines.cut_and_paste.CutAndPastePerturbation.solve_intersection_sizes`,
    which applies one cached minimum-norm row per length (one ``lstsq``
    per length over the operator's life) and treats every row as it
    would alone, so every estimate equals
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
        """Partial-support reconstruction, one solve per candidate length."""
        n_records = self.perturbed_bits.shape[0]

        def solve(block: np.ndarray) -> np.ndarray:
            k = block.shape[1].bit_length() - 1
            # fold[code, l] = 1 where the pattern code has l bits set.
            fold = np.zeros((1 << k, k + 1), dtype=np.int64)
            fold[range(1 << k), [code.bit_count() for code in range(1 << k)]] = 1
            histograms = block @ fold
            return self.operator.solve_intersection_sizes(
                histograms.astype(float) / n_records
            )

        return self._estimates(itemsets, solve, self.operator.estimate_itemset_support)
