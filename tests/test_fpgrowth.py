"""FP-Growth (tests/fpgrowth.py) as Apriori's exact-mining oracle."""

import numpy as np
import pytest
from fpgrowth import fpgrowth
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import CategoricalDataset
from repro.data.schema import Attribute, Schema
from repro.exceptions import MiningError
from repro.mining.reconstructing import mine_exact


class TestAgainstApriori:
    def test_identical_on_survey_data(self, survey_dataset):
        via_fp = fpgrowth(survey_dataset, 0.05)
        via_apriori = mine_exact(survey_dataset, 0.05)
        assert via_fp.frequent() == pytest.approx(via_apriori.frequent())

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.03, max_value=0.4),
    )
    @settings(max_examples=25, deadline=None)
    def test_identical_on_random_data(self, seed, min_support):
        """Property: two independent miners agree on every dataset."""
        rng = np.random.default_rng(seed)
        schema = Schema(
            [Attribute("a", "wxyz"), Attribute("b", "pq"), Attribute("c", "uvw")]
        )
        records = np.stack(
            [rng.integers(0, c, size=80) for c in schema.cardinalities], axis=1
        )
        dataset = CategoricalDataset(schema, records)
        via_fp = fpgrowth(dataset, min_support)
        via_apriori = mine_exact(dataset, min_support)
        assert via_fp.frequent() == pytest.approx(via_apriori.frequent())

    def test_identical_counts_on_census_sample(self):
        from repro.data.census import generate_census

        data = generate_census(8000, seed=3)
        assert (
            fpgrowth(data, 0.02).counts_by_length()
            == mine_exact(data, 0.02).counts_by_length()
        )

    @pytest.mark.slow
    def test_identical_at_paper_scale(self):
        from repro.data.census import generate_census

        data = generate_census()
        via_apriori = mine_exact(data, 0.02).frequent()
        via_fp = fpgrowth(data, 0.02).frequent()
        assert set(via_fp) == set(via_apriori)
        assert all(abs(via_fp[k] - via_apriori[k]) < 1e-12 for k in via_apriori)


class TestBehaviour:
    def test_max_length(self, survey_dataset):
        capped = fpgrowth(survey_dataset, 0.05, max_length=2)
        assert capped.max_length <= 2

    def test_threshold_one_returns_nothing_or_constants(self, survey_dataset):
        result = fpgrowth(survey_dataset, 1.0)
        for level in result.by_length.values():
            for support in level.values():
                assert support == pytest.approx(1.0)

    def test_validation(self, survey_dataset, tiny_schema):
        with pytest.raises(MiningError):
            fpgrowth(survey_dataset, 0.0)
        empty = CategoricalDataset(tiny_schema, np.empty((0, 2), dtype=int))
        with pytest.raises(MiningError):
            fpgrowth(empty, 0.1)

    def test_levels_sorted(self, survey_dataset):
        result = fpgrowth(survey_dataset, 0.05)
        lengths = list(result.by_length)
        assert lengths == sorted(lengths)
