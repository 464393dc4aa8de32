"""Tests for repro.baselines.cut_and_paste (Evfimievski et al. 2002)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cut_and_paste import (
    CutAndPastePerturbation,
    amplification,
    cut_size_distribution,
    partial_support_matrix,
    rho_for_gamma,
    transition_probability,
)
from repro.data.census import census_schema
from repro.data.health import health_schema
from repro.exceptions import DataError, MatrixError, PrivacyError
from repro.stats.linalg import condition_number


class TestCutSizeDistribution:
    def test_k_below_m(self):
        probs = cut_size_distribution(n_ones=6, max_cut=3)
        assert probs[:4].tolist() == [0.25] * 4
        assert probs[4:].sum() == 0.0

    def test_k_above_m_clamps(self):
        probs = cut_size_distribution(n_ones=2, max_cut=4)
        assert probs.tolist() == pytest.approx([0.2, 0.2, 0.6])

    def test_sums_to_one(self):
        for m, k in [(1, 0), (5, 3), (3, 10)]:
            assert cut_size_distribution(m, k).sum() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(MatrixError):
            cut_size_distribution(-1, 3)


class TestTransitionProbability:
    def test_monotone_in_overlap(self):
        """P(u -> v) grows with |u ∩ v| -- the basis of the worst-case
        amplification formula."""
        probs = [
            transition_probability(s, 6, 6, 23, 3, 0.45) for s in range(7)
        ]
        assert all(b >= a for a, b in zip(probs, probs[1:]))

    def test_k_zero_ignores_input(self):
        """Pure paste: the output is independent of the original."""
        a = transition_probability(0, 4, 6, 23, 0, 0.45)
        b = transition_probability(4, 4, 6, 23, 0, 0.45)
        assert a == pytest.approx(b)

    def test_validation(self):
        with pytest.raises(MatrixError):
            transition_probability(7, 6, 6, 23, 3, 0.45)  # overlap > ones
        with pytest.raises(MatrixError):
            transition_probability(0, 30, 6, 23, 3, 0.45)  # |v| > universe
        with pytest.raises(MatrixError):
            transition_probability(0, 4, 6, 23, 3, 1.5)  # bad rho

    def test_sums_to_one_over_targets(self):
        """Summing P(u -> v) over all boolean targets gives 1."""
        from math import comb

        m, n_bits, k, rho = 4, 8, 2, 0.37
        total = 0.0
        for lv in range(n_bits + 1):
            for s in range(min(m, lv) + 1):
                # number of v with |v|=lv and |u ∩ v| = s
                count = comb(m, s) * comb(n_bits - m, lv - s) if lv - s >= 0 else 0
                if count:
                    total += count * transition_probability(s, lv, m, n_bits, k, rho)
        assert total == pytest.approx(1.0)


class TestAmplificationAndRho:
    def test_closed_form(self):
        """amplification = sum_w P(w) rho^-w / P(0) for K <= M."""
        rho, k = 0.5, 3
        expected = 1 + 2 + 4 + 8  # rho^-w terms, equal P(w)
        assert amplification(6, k, rho) == pytest.approx(expected)

    @given(
        st.floats(min_value=0.1, max_value=0.9),
        st.integers(min_value=1, max_value=5),
    )
    def test_amplification_at_least_one(self, rho, k):
        assert amplification(6, k, rho) >= 1.0

    def test_monotone_decreasing_in_rho(self):
        values = [amplification(6, 3, rho) for rho in (0.2, 0.4, 0.6, 0.8)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_rho_for_gamma_binds(self):
        """The returned rho satisfies the bound tightly."""
        rho = rho_for_gamma(19.0, 6, 3)
        assert amplification(6, 3, rho) == pytest.approx(19.0, rel=1e-6)
        # Slightly smaller rho must violate it.
        assert amplification(6, 3, rho - 1e-3) > 19.0

    def test_census_ballpark(self):
        """Our exact accounting gives rho ~ 0.46 for the paper's
        gamma=19, K=3 (the paper reports 0.494 from its Eq.-12 variant;
        see the module docstring for the discrepancy discussion)."""
        rho = rho_for_gamma(19.0, 6, 3)
        assert 0.40 < rho < 0.50

    def test_k_zero_rejected(self):
        with pytest.raises(PrivacyError):
            rho_for_gamma(19.0, 6, 0)

    def test_unsatisfiable_gamma_rejected(self):
        """Very small gamma cannot be met with a revealing cut."""
        with pytest.raises(PrivacyError):
            rho_for_gamma(1.5, 6, 5)

    def test_amplification_validation(self):
        with pytest.raises(MatrixError):
            amplification(6, 3, 0.0)


class TestPartialSupportMatrix:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=5),
        st.floats(min_value=0.1, max_value=0.9),
    )
    @settings(max_examples=60)
    def test_columns_are_distributions(self, k, max_cut, rho):
        m = 6
        k = min(k, m)
        matrix = partial_support_matrix(m, max_cut, rho, k)
        assert np.all(matrix >= -1e-12)
        assert np.allclose(matrix.sum(axis=0), 1.0)

    def test_rank_deficient_beyond_cut(self):
        """For k > K the matrix has rank at most K+1: the reason C&P
        cannot reconstruct long itemsets (paper Section 7.1)."""
        matrix = partial_support_matrix(6, 3, 0.45, 5)
        assert np.linalg.matrix_rank(matrix) <= 4

    def test_full_rank_within_cut(self):
        matrix = partial_support_matrix(6, 3, 0.45, 3)
        assert np.linalg.matrix_rank(matrix) == 4

    def test_condition_explodes_beyond_cut(self):
        within = condition_number(partial_support_matrix(6, 3, 0.45, 3))
        beyond = condition_number(partial_support_matrix(6, 3, 0.45, 4))
        assert beyond > within * 100

    def test_matches_monte_carlo(self, survey_schema, rng):
        """The analytic P(l' | l) matches the empirical operator."""
        operator = CutAndPastePerturbation(survey_schema, max_cut=2, rho=0.3)
        m = survey_schema.n_attributes  # 3 ones per record
        k = 2
        matrix = operator.reconstruction_matrix(k)
        # Build records whose intersection with the itemset {bit0, bit3}
        # is exactly l for l = 0..2, and measure l'.
        # bit0 = smokes:never, bit3 = sex:F.
        from repro.data.dataset import CategoricalDataset

        cases = {0: [1, 1, 0], 1: [0, 1, 0], 2: [0, 0, 1]}
        n_trials = 40_000
        for l_in, record in cases.items():
            dataset = CategoricalDataset(survey_schema, [record] * n_trials)
            bits = operator.perturb(dataset, seed=rng)
            inter = bits[:, [0, 3]].sum(axis=1)
            freq = np.bincount(inter, minlength=k + 1) / n_trials
            assert np.allclose(freq, matrix[:, l_in], atol=0.01), f"l={l_in}"

    def test_cached_matrix_is_read_only(self, survey_schema):
        operator = CutAndPastePerturbation(survey_schema, max_cut=2, rho=0.3)
        matrix = operator.reconstruction_matrix(2)
        assert operator.reconstruction_matrix(2) is matrix
        assert np.array_equal(matrix, partial_support_matrix(3, 2, 0.3, 2))
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0

    def test_k_too_long_rejected(self):
        with pytest.raises(MatrixError):
            partial_support_matrix(3, 2, 0.4, 4)

    def test_validation(self):
        with pytest.raises(MatrixError):
            partial_support_matrix(6, 3, 0.4, 0)
        with pytest.raises(MatrixError):
            partial_support_matrix(6, 3, 1.0, 2)


class TestOperator:
    def test_output_shape(self, survey_schema, survey_dataset):
        operator = CutAndPastePerturbation(survey_schema, max_cut=3, rho=0.4)
        bits = operator.perturb(survey_dataset, seed=0)
        assert bits.shape == (survey_dataset.n_records, survey_schema.n_boolean)

    def test_deterministic_with_seed(self, survey_schema, survey_dataset):
        operator = CutAndPastePerturbation(survey_schema, max_cut=3, rho=0.4)
        a = operator.perturb(survey_dataset, seed=1)
        b = operator.perturb(survey_dataset, seed=1)
        assert np.array_equal(a, b)

    def test_ones_rate_matches_theory(self, survey_schema, survey_dataset):
        """E[|t'|] = E[w] + (Mb - E[w]) * rho."""
        max_cut, rho = 2, 0.3
        operator = CutAndPastePerturbation(survey_schema, max_cut, rho)
        bits = operator.perturb(survey_dataset, seed=2)
        expected_cut = np.dot(
            np.arange(4), cut_size_distribution(survey_schema.n_attributes, max_cut)
        )
        n_bits = survey_schema.n_boolean
        expected_ones = expected_cut + (n_bits - expected_cut) * rho
        assert bits.sum(axis=1).mean() == pytest.approx(expected_ones, abs=0.05)

    def test_for_gamma_satisfies_privacy(self, survey_schema):
        operator = CutAndPastePerturbation.for_gamma(survey_schema, 19.0)
        assert operator.amplification() <= 19.0 * (1 + 1e-9)

    def test_schema_mismatch(self, survey_schema, tiny_dataset):
        operator = CutAndPastePerturbation(survey_schema, 3, 0.4)
        with pytest.raises(DataError):
            operator.perturb(tiny_dataset, seed=0)

    def test_parameter_validation(self, survey_schema):
        with pytest.raises(MatrixError):
            CutAndPastePerturbation(survey_schema, -1, 0.4)
        with pytest.raises(MatrixError):
            CutAndPastePerturbation(survey_schema, 3, 0.0)

    def test_support_estimation_tracks_truth(self, survey_schema, survey_dataset):
        """Short-itemset estimates are close to true supports."""
        operator = CutAndPastePerturbation(survey_schema, max_cut=3, rho=0.2)
        bits = operator.perturb(survey_dataset, seed=3)
        true_support = np.mean(survey_dataset.column(0) == 0)
        estimate = operator.estimate_itemset_support(bits, [0])
        assert estimate == pytest.approx(true_support, abs=0.03)

    def test_empty_database_rejected(self, survey_schema):
        operator = CutAndPastePerturbation(survey_schema, 3, 0.4)
        with pytest.raises(DataError):
            operator.estimate_itemset_support(np.empty((0, 7)), [0])


class TestSupportRow:
    @pytest.mark.parametrize("schema", [census_schema(), health_schema()])
    def test_matches_per_candidate_lstsq(self, schema):
        """Within 1e-12 of ``lstsq`` per candidate, rank-deficient ``k > K`` too.

        Observed distributions are perturbed ones (``R_k`` times a random
        original, with sampling noise) and arbitrary ones.
        """
        operator = CutAndPastePerturbation.for_gamma(schema, 19.0)
        rng = np.random.default_rng(schema.n_attributes)
        for k in range(1, schema.n_attributes + 1):
            matrix = operator.reconstruction_matrix(k)
            for _ in range(20):
                perturbed = matrix @ rng.dirichlet(np.full(k + 1, 0.5))
                sampled = rng.multinomial(50_000, perturbed / perturbed.sum()) / 50_000
                for observed in (sampled, rng.dirichlet(np.ones(k + 1))):
                    expected = np.linalg.lstsq(matrix, observed, rcond=None)[0][k]
                    got = operator.solve_intersection_sizes(observed)
                    assert abs(got - expected) <= 1e-12
        row = operator.support_row(2)
        assert operator.support_row(2) is row
        with pytest.raises(ValueError):
            row[0] = 1.0

    def test_block_solve_is_row_by_row_and_leaves_its_input(self):
        """A stacked block solves to its rows' own estimates, bit for bit."""
        operator = CutAndPastePerturbation.for_gamma(census_schema(), 19.0)
        rng = np.random.default_rng(9)
        for k in (1, 3, 5):
            block = rng.dirichlet(np.ones(k + 1), size=(2, 3))
            before = block.copy()
            block.setflags(write=False)
            solved = operator.solve_intersection_sizes(block)
            assert solved.shape == (2, 3)
            assert np.array_equal(block, before)
            for index in np.ndindex(2, 3):
                assert np.array_equal(
                    operator.solve_intersection_sizes(block[index]), solved[index]
                )
