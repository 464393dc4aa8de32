"""Tests for repro.baselines.mask (MASK, Rizvi & Haritsa 2002)."""

import tracemalloc
from fractions import Fraction

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

EPS = np.finfo(float).eps

#: The paper's HEALTH and CENSUS MASK ``p`` at gamma = 19, and generic
#: values on both sides of 1/2.
P_VALUES = st.one_of(
    st.sampled_from([0.5524, 0.5610]),
    st.floats(min_value=0.05, max_value=0.45),
    st.floats(min_value=0.55, max_value=0.95),
)


def _pattern_counts(k: int, n_records: int, seed: int) -> np.ndarray:
    """Random counts of the ``2^k`` patterns over ``n_records`` records."""
    rng = np.random.default_rng(seed)
    return rng.multinomial(n_records, rng.dirichlet(np.ones(1 << k))).astype(float)


def _exact_support_count(p: float, observed: np.ndarray) -> Fraction:
    """The all-ones entry of the solve, in exact rationals.

    The inverse of the bit matrix ``[[p, q], [q, p]]`` (``q = 1 - p``)
    is ``[[p, -q], [-q, p]] / (2p - 1)``, so the all-ones entry of its
    ``k``-th Kronecker power applied to ``observed`` is
    ``sum_u p^|u| (-q)^(k - |u|) observed[u] / (2p - 1)^k``, with
    ``|u|`` the set bits of pattern ``u``.  ``p`` is the double given,
    read exactly.
    """
    k = observed.size.bit_length() - 1
    ones = np.zeros(1, dtype=np.int64)
    for _ in range(k):
        ones = np.concatenate([ones, ones + 1])
    by_ones = np.bincount(ones, weights=observed, minlength=k + 1)
    p = Fraction(p)
    q = 1 - p
    total = sum(p**j * (-q) ** (k - j) * int(count) for j, count in enumerate(by_ones))
    return total / (2 * p - 1) ** k


def _closed_form_bound(p: float, k: int, n_records: int) -> float:
    """``2 k eps cond N``: the error the closed-form solve may carry.

    ``cond = |2p - 1|^-k``.  Each of the ``k`` bit axes rounds about
    three times per entry; at ``k = 1`` that is up to 1.25 ``eps cond
    N`` in the worst case (0.91 measured), hence the 2.
    """
    return 2 * k * EPS * abs(2 * p - 1) ** -k * n_records


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

    def test_block_solve_is_row_by_row_and_leaves_its_input(self, survey_schema):
        """A stacked block solves to its rows' own solutions, bit for bit.

        The block is read-only, so a solve that wrote into it would
        raise; it is also compared with a copy afterwards.
        """
        mask = MaskPerturbation(survey_schema, p=0.5524)
        rng = np.random.default_rng(8)
        for k in (1, 2, 5, 9):
            block = rng.integers(0, 10_000, size=(2, 3, 1 << k)).astype(float)
            before = block.copy()
            block.setflags(write=False)
            solved = mask.solve_pattern_counts(block)
            assert solved.shape == block.shape
            assert np.array_equal(block, before)
            for index in np.ndindex(block.shape[:-1]):
                assert np.array_equal(
                    mask.solve_pattern_counts(block[index]), solved[index]
                )

    def test_empty_database_rejected(self, survey_schema):
        mask = MaskPerturbation(survey_schema, p=0.8)
        with pytest.raises(DataError):
            mask.estimate_itemset_support(np.empty((0, 7)), [0])

    def test_no_positions_rejected(self, survey_schema):
        mask = MaskPerturbation(survey_schema, p=0.8)
        with pytest.raises(DataError):
            mask.estimate_pattern_counts(np.zeros((5, 7)), [])

    def test_too_many_positions_rejected(self, survey_schema):
        mask = MaskPerturbation(survey_schema, p=0.8)
        with pytest.raises(DataError):
            mask.estimate_pattern_counts(np.zeros((5, 30)), list(range(25)))

    def test_widest_pattern_space_solves_in_closed_form(self):
        """20 positions: a 2^20-pattern solve, never a 2^20 x 2^20 matrix.

        The bits are 20 wide, not the schema's 23: ``perturb_boolean``
        output can have any width.
        """
        p = 0.5610
        mask = MaskPerturbation(census_schema(), p)
        bits = mask.perturb_boolean(
            np.random.default_rng(20).random((300, 20)) < 0.3, seed=21
        )
        tracemalloc.start()
        try:
            counts = mask.estimate_pattern_counts(bits, range(20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A few 2^20-float (8 MiB) vectors; the dense system is 8 TiB.
        assert peak < 80 * 2**20
        sub = bits.astype(np.int64) @ (1 << np.arange(19, -1, -1))
        observed = np.bincount(sub, minlength=1 << 20).astype(float)
        error = abs(Fraction(float(counts[-1])) - _exact_support_count(p, observed))
        assert error <= _closed_form_bound(p, 20, 300)

    def test_half_is_not_invertible(self, survey_schema, survey_dataset):
        """At p = 1/2 the bit matrix is singular: a typed error, not LAPACK's."""
        mask = MaskPerturbation(survey_schema, p=0.5)
        bits = mask.perturb(survey_dataset, seed=0)
        with pytest.raises(MatrixError):
            mask.solve_pattern_counts(np.ones(4))
        with pytest.raises(MatrixError):
            mask.estimate_itemset_support(bits, [0, 3])


class TestClosedFormAccuracy:
    """The closed-form solve against exact rationals and against LU."""

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=12),
        p=P_VALUES,
        n_records=st.integers(min_value=1, max_value=10**6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_support_count_matches_exact_rationals(self, k, p, n_records, seed):
        observed = _pattern_counts(k, n_records, seed)
        solved = MaskPerturbation(census_schema(), p).solve_pattern_counts(observed)
        error = abs(Fraction(float(solved[-1])) - _exact_support_count(p, observed))
        assert error <= _closed_form_bound(p, k, n_records)

    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=7),
        p=P_VALUES,
        n_records=st.integers(min_value=1, max_value=10**6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_pattern_counts_match_lu(self, k, p, n_records, seed):
        """LU on the analytic matrix, a looser oracle for every entry.

        LU's own error grows with the ``2^k x 2^k`` matrix; ``4^k k eps
        cond N`` held it with a margin of 2.7 over 6,000 random cases.
        """
        observed = _pattern_counts(k, n_records, seed)
        solved = MaskPerturbation(census_schema(), p).solve_pattern_counts(observed)
        lu = np.linalg.solve(itemset_matrix(p, k), observed)
        bound = 4**k * k * EPS * abs(2 * p - 1) ** -k * n_records
        assert np.abs(solved - lu).max() <= bound
