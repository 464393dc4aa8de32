"""Tests for repro.mining.counting (support sources / estimators)."""

import numpy as np
import pytest

from repro.baselines.cut_and_paste import CutAndPastePerturbation
from repro.baselines.mask import MaskPerturbation
from repro.core.engine import GammaDiagonalPerturbation
from repro.data.dataset import CategoricalDataset
from repro.exceptions import DataError, MiningError
from repro.mining.counting import (
    CutAndPasteSupportEstimator,
    ExactSupportCounter,
    GammaDiagonalSupportEstimator,
    MaskSupportEstimator,
)
from repro.mining.itemsets import Itemset, all_items


class TestExactCounter:
    def test_singleton_supports(self, tiny_dataset):
        counter = ExactSupportCounter(tiny_dataset)
        supports = counter.supports([Itemset.of((0, 0)), Itemset.of((0, 1))])
        assert supports.tolist() == [5 / 8, 3 / 8]

    def test_pair_supports(self, tiny_dataset):
        counter = ExactSupportCounter(tiny_dataset)
        supports = counter.supports([Itemset.of((0, 0), (1, 1))])
        assert supports[0] == pytest.approx(3 / 8)

    def test_all_items_sum_per_attribute(self, survey_dataset):
        """Supports of an attribute's singletons sum to one."""
        counter = ExactSupportCounter(survey_dataset)
        items = all_items(survey_dataset.schema)
        supports = counter.supports(items)
        by_attr = {}
        for item, s in zip(items, supports):
            by_attr.setdefault(item.attributes[0], []).append(s)
        for values in by_attr.values():
            assert sum(values) == pytest.approx(1.0)

    def test_matches_naive_masking(self, survey_dataset, rng):
        counter = ExactSupportCounter(survey_dataset)
        itemset = Itemset.of((0, 1), (2, 0))
        expected = np.mean(
            (survey_dataset.column(0) == 1) & (survey_dataset.column(2) == 0)
        )
        assert counter.supports([itemset])[0] == pytest.approx(expected)

    def test_empty_dataset_rejected(self, tiny_schema):
        empty = CategoricalDataset(tiny_schema, np.empty((0, 2), dtype=int))
        with pytest.raises(MiningError):
            ExactSupportCounter(empty).supports([Itemset.of((0, 0))])


class TestGammaDiagonalEstimator:
    def test_estimates_track_truth(self, survey_schema, survey_dataset):
        gamma = 20.0
        perturbed = GammaDiagonalPerturbation(survey_schema, gamma).perturb(
            survey_dataset, seed=0
        )
        estimator = GammaDiagonalSupportEstimator(perturbed, gamma)
        counter = ExactSupportCounter(survey_dataset)
        itemsets = [
            Itemset.of((0, 0)),
            Itemset.of((0, 0), (2, 1)),
            Itemset.of((0, 0), (1, 0), (2, 1)),
        ]
        estimates = estimator.supports(itemsets)
        truth = counter.supports(itemsets)
        assert np.allclose(estimates, truth, atol=0.06)

    def test_estimates_may_be_negative(self, survey_schema, survey_dataset):
        """Rare itemsets can reconstruct below zero -- by design."""
        gamma = 2.0  # heavy perturbation
        perturbed = GammaDiagonalPerturbation(survey_schema, gamma).perturb(
            survey_dataset, seed=1
        )
        estimator = GammaDiagonalSupportEstimator(perturbed, gamma)
        itemsets = [
            Itemset(zip((0, 1, 2), values))
            for values in [(2, 0, 0), (2, 1, 0), (1, 1, 1), (2, 0, 1)]
        ]
        estimates = estimator.supports(itemsets)
        assert np.isfinite(estimates).all()

    def test_full_domain_estimates_sum_to_one(self, survey_schema, survey_dataset):
        """Estimates over a complete sub-domain partition sum to 1."""
        gamma = 10.0
        perturbed = GammaDiagonalPerturbation(survey_schema, gamma).perturb(
            survey_dataset, seed=2
        )
        estimator = GammaDiagonalSupportEstimator(perturbed, gamma)
        itemsets = [Itemset.of((1, v)) for v in range(2)]
        assert estimator.supports(itemsets).sum() == pytest.approx(1.0)


class TestMaskEstimator:
    def test_estimates_track_truth(self, survey_schema, survey_dataset):
        mask = MaskPerturbation(survey_schema, p=0.9)
        bits = mask.perturb(survey_dataset, seed=3)
        estimator = MaskSupportEstimator(survey_schema, bits, mask)
        counter = ExactSupportCounter(survey_dataset)
        itemsets = [Itemset.of((0, 0)), Itemset.of((0, 0), (1, 1))]
        assert np.allclose(
            estimator.supports(itemsets), counter.supports(itemsets), atol=0.05
        )

    def test_shape_validation(self, survey_schema):
        mask = MaskPerturbation(survey_schema, p=0.9)
        with pytest.raises(DataError):
            MaskSupportEstimator(survey_schema, np.zeros((5, 3)), mask)


class TestCutAndPasteEstimator:
    def test_estimates_track_truth(self, survey_schema, survey_dataset):
        operator = CutAndPastePerturbation(survey_schema, max_cut=3, rho=0.2)
        bits = operator.perturb(survey_dataset, seed=4)
        estimator = CutAndPasteSupportEstimator(survey_schema, bits, operator)
        counter = ExactSupportCounter(survey_dataset)
        itemsets = [Itemset.of((0, 0)), Itemset.of((0, 0), (2, 1))]
        assert np.allclose(
            estimator.supports(itemsets), counter.supports(itemsets), atol=0.05
        )

    def test_shape_validation(self, survey_schema):
        operator = CutAndPastePerturbation(survey_schema, max_cut=3, rho=0.2)
        with pytest.raises(DataError):
            CutAndPasteSupportEstimator(survey_schema, np.zeros((5, 3)), operator)


@pytest.mark.parametrize("kind", ["mask", "cp"])
@pytest.mark.parametrize("item", [(0, 4), (1, -1)])
def test_boolean_estimators_reject_out_of_domain_items(kind, item):
    """An item past its attribute's domain raises, as DET-GD's does.

    On CENSUS, cardinalities (4, 5, 5, 5, 2, 2), the bit row of
    ``(0, 4)`` is the row of ``(1, 0)``; it must not be answered as it.
    """
    from repro.data.census import census_schema, generate_census

    schema = census_schema()
    dataset = generate_census(500, seed=3)
    if kind == "mask":
        operator = MaskPerturbation.for_gamma(schema, 19.0)
        estimator_cls = MaskSupportEstimator
    else:
        operator = CutAndPastePerturbation.for_gamma(schema, 19.0)
        estimator_cls = CutAndPasteSupportEstimator
    estimator = estimator_cls(schema, operator.perturb(dataset, seed=4), operator)
    with pytest.raises(DataError, match="out of domain"):
        estimator.supports([Itemset.of((0, 0)), Itemset.of(item)])
    with pytest.raises(DataError, match="out of domain"):
        estimator.supports([Itemset.of(item, (2, 1))])


@pytest.mark.parametrize("source", ["gd", "accumulated", "marginal-inversion"])
@pytest.mark.parametrize("value", [2, -1])
def test_count_path_estimators_reject_out_of_domain_items(
    survey_schema, survey_dataset, source, value
):
    """An item value at its attribute's cardinality, or below zero,
    raises :class:`DataError` on every count-path Eq.-28 estimator.

    On the survey schema, cardinalities (3, 2, 2), ``(1, 2)`` would
    otherwise read the cell of ``(2, 0)`` in a pair with attribute 2.
    """
    estimator = _support_sources(survey_schema, survey_dataset)[source]()
    with pytest.raises(DataError, match="out of domain"):
        estimator.supports([Itemset.of((0, 0)), Itemset.of((1, value))])
    with pytest.raises(DataError, match="out of domain"):
        estimator.supports([Itemset.of((1, value), (2, 1))])


# ----------------------------------------------------------------------
# every support source accepts a one-shot iterable
# ----------------------------------------------------------------------


def _support_sources(schema, dataset):
    """One constructor per support source, over the same survey data."""
    from repro.mechanisms import MechanismSpec, from_spec
    from repro.mechanisms.base import MarginalInversionEstimator
    from repro.mining.kernels import BitmapSupportCounter
    from repro.pipeline import (
        AccumulatedSupportEstimator,
        BitmapStreamSupportEstimator,
        PerturbationPipeline,
    )

    gamma = 19.0
    engine = GammaDiagonalPerturbation(schema, gamma)
    pipeline = PerturbationPipeline(engine, chunk_size=700)
    mask = MaskPerturbation(schema, p=0.85)
    operator = CutAndPastePerturbation(schema, max_cut=3, rho=0.2)

    def marginal():
        perturbed = engine.perturb(dataset, seed=5)
        mechanism = from_spec(MechanismSpec("det-gd", {"gamma": gamma}), schema)
        return MarginalInversionEstimator(
            mechanism, perturbed.subset_counts, perturbed.n_records
        )

    return {
        "exact": lambda: ExactSupportCounter(dataset),
        "bitmap-counter": lambda: BitmapSupportCounter.from_dataset(dataset),
        "gd": lambda: GammaDiagonalSupportEstimator(
            engine.perturb(dataset, seed=5), gamma
        ),
        "mask": lambda: MaskSupportEstimator(
            schema, mask.perturb(dataset, seed=6), mask
        ),
        "cp": lambda: CutAndPasteSupportEstimator(
            schema, operator.perturb(dataset, seed=7), operator
        ),
        "marginal-inversion": marginal,
        "accumulated": lambda: AccumulatedSupportEstimator(
            pipeline.accumulate(dataset, seed=8), gamma
        ),
        "bitmap-stream": lambda: BitmapStreamSupportEstimator(
            pipeline.accumulate_bitmaps(dataset, seed=8), gamma
        ),
    }


@pytest.mark.parametrize(
    "source",
    [
        "exact",
        "bitmap-counter",
        "gd",
        "mask",
        "cp",
        "marginal-inversion",
        "accumulated",
        "bitmap-stream",
    ],
)
def test_generator_input_matches_list(survey_schema, survey_dataset, source):
    """A generator of itemsets gets the same supports as the list."""
    build = _support_sources(survey_schema, survey_dataset)[source]
    itemsets = all_items(survey_schema) + [
        Itemset.of((0, 0), (1, 1)),
        Itemset.of((0, 2), (1, 0), (2, 1)),
    ]
    # The generator goes first, into a fresh source, so nothing computed
    # for the list can leak into an uninitialised result.
    from_generator = build().supports(itemset for itemset in itemsets)
    from_list = build().supports(itemsets)
    assert np.array_equal(from_generator, from_list)
