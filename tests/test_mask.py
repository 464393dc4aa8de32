"""Tests for repro.baselines.mask (MASK, Rizvi & Haritsa 2002)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.mask import (
    MaskPerturbation,
    bit_matrix,
    full_record_probability,
    itemset_condition_number,
    itemset_matrix,
    mask_p_for_gamma,
)
from repro.data.census import census_schema
from repro.exceptions import DataError, MatrixError, PrivacyError
from repro.stats.linalg import condition_number, is_markov_matrix


class TestPrivacyParameter:
    def test_census_value_from_paper(self):
        """gamma=19, M=6 -> p = 0.5610 (paper Section 7)."""
        assert mask_p_for_gamma(19.0, 6) == pytest.approx(0.5610, abs=5e-4)

    def test_health_value_from_paper(self):
        """gamma=19, M=7 -> p = 0.5524 (paper Section 7)."""
        assert mask_p_for_gamma(19.0, 7) == pytest.approx(0.5524, abs=5e-4)

    @given(
        st.floats(min_value=1.1, max_value=100.0),
        st.integers(min_value=1, max_value=20),
    )
    def test_constraint_tight(self, gamma, m):
        """(p/(1-p))^(2M) equals gamma at the returned p."""
        p = mask_p_for_gamma(gamma, m)
        assert (p / (1.0 - p)) ** (2 * m) == pytest.approx(gamma, rel=1e-6)

    def test_validation(self):
        with pytest.raises(PrivacyError):
            mask_p_for_gamma(1.0, 6)
        with pytest.raises(MatrixError):
            mask_p_for_gamma(19.0, 0)

    def test_amplification_method(self):
        mask = MaskPerturbation.for_gamma(census_schema(), 19.0)
        assert mask.amplification() == pytest.approx(19.0, rel=1e-6)


class TestMatrices:
    def test_bit_matrix(self):
        assert np.allclose(bit_matrix(0.7), [[0.7, 0.3], [0.3, 0.7]])

    def test_bit_matrix_validation(self):
        with pytest.raises(MatrixError):
            bit_matrix(1.5)

    @given(
        st.floats(min_value=0.51, max_value=0.99),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40)
    def test_itemset_matrix_is_markov(self, p, k):
        assert is_markov_matrix(itemset_matrix(p, k))

    @given(
        st.floats(min_value=0.55, max_value=0.95),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40)
    def test_condition_number_formula_matches_svd(self, p, k):
        """(1/(2p-1))^k equals the SVD condition number of the tensor
        power -- the exponential growth of Fig. 4."""
        assert itemset_condition_number(p, k) == pytest.approx(
            condition_number(itemset_matrix(p, k)), rel=1e-6
        )

    def test_condition_number_at_half_is_infinite(self):
        assert itemset_condition_number(0.5, 3) == float("inf")

    def test_full_record_probability_eq11(self):
        assert full_record_probability(0.6, 3, 5) == pytest.approx(
            0.6**3 * 0.4**2
        )
        with pytest.raises(MatrixError):
            full_record_probability(0.6, 6, 5)

    def test_itemset_matrix_length_validation(self):
        with pytest.raises(MatrixError):
            itemset_matrix(0.6, 0)


class TestPerturbation:
    def test_output_shape(self, survey_schema, survey_dataset):
        mask = MaskPerturbation(survey_schema, p=0.9)
        bits = mask.perturb(survey_dataset, seed=0)
        assert bits.shape == (survey_dataset.n_records, survey_schema.n_boolean)
        assert set(np.unique(bits)) <= {0, 1}

    def test_p_one_is_identity(self, survey_schema, survey_dataset):
        mask = MaskPerturbation(survey_schema, p=1.0)
        assert np.array_equal(
            mask.perturb(survey_dataset, seed=0), survey_dataset.to_boolean()
        )

    def test_p_zero_flips_everything(self, survey_schema, survey_dataset):
        mask = MaskPerturbation(survey_schema, p=0.0)
        assert np.array_equal(
            mask.perturb(survey_dataset, seed=0), 1 - survey_dataset.to_boolean()
        )

    def test_flip_rate(self, survey_schema, survey_dataset):
        p = 0.8
        mask = MaskPerturbation(survey_schema, p=p)
        bits = mask.perturb(survey_dataset, seed=1)
        flipped = (bits != survey_dataset.to_boolean()).mean()
        assert flipped == pytest.approx(1.0 - p, abs=0.01)

    def test_schema_mismatch(self, survey_schema, tiny_dataset):
        with pytest.raises(DataError):
            MaskPerturbation(survey_schema, 0.9).perturb(tiny_dataset, seed=0)

    def test_perturb_boolean_generic(self, rng):
        mask = MaskPerturbation(census_schema(), p=0.7)
        bits = (rng.random((100, 10)) < 0.5).astype(np.int8)
        out = mask.perturb_boolean(bits, seed=2)
        assert out.shape == bits.shape

    def test_p_validation(self, survey_schema):
        with pytest.raises(MatrixError):
            MaskPerturbation(survey_schema, p=-0.1)


class TestSupportEstimation:
    def test_unbiased_on_large_sample(self, survey_schema, survey_dataset):
        """Estimated itemset support tracks the true support."""
        mask = MaskPerturbation(survey_schema, p=0.9)
        bits = mask.perturb(survey_dataset, seed=3)
        # Itemset {smokes=never, income=high}: boolean positions 0 and 6.
        positions = [0, 6]
        true_support = np.mean(
            (survey_dataset.column(0) == 0) & (survey_dataset.column(2) == 1)
        )
        estimate = mask.estimate_itemset_support(bits, positions)
        assert estimate == pytest.approx(true_support, abs=0.03)

    def test_pattern_counts_preserve_total(self, survey_schema, survey_dataset):
        mask = MaskPerturbation(survey_schema, p=0.8)
        bits = mask.perturb(survey_dataset, seed=4)
        counts = mask.estimate_pattern_counts(bits, [0, 2, 5])
        assert counts.sum() == pytest.approx(survey_dataset.n_records)

    def test_cached_matrix_is_read_only(self, survey_schema):
        mask = MaskPerturbation(survey_schema, p=0.8)
        observed = np.array([10.0, 20.0, 30.0, 40.0])
        first = mask.solve_pattern_counts(observed)
        matrix = mask._matrices[2]
        assert np.array_equal(matrix, itemset_matrix(0.8, 2))
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0
        assert np.array_equal(mask.solve_pattern_counts(observed), first)

    def test_empty_database_rejected(self, survey_schema):
        mask = MaskPerturbation(survey_schema, p=0.8)
        with pytest.raises(DataError):
            mask.estimate_itemset_support(np.empty((0, 7)), [0])

    def test_too_many_positions_rejected(self, survey_schema):
        mask = MaskPerturbation(survey_schema, p=0.8)
        with pytest.raises(DataError):
            mask.estimate_pattern_counts(np.zeros((5, 30)), list(range(25)))

    def test_no_positions_rejected(self, survey_schema):
        mask = MaskPerturbation(survey_schema, p=0.8)
        with pytest.raises(DataError):
            mask.estimate_pattern_counts(np.zeros((5, 7)), [])
