"""Tests for repro.core.gamma_diagonal (the paper's Section 3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gamma_diagonal import (
    GammaDiagonalMatrix,
    maximum_diagonal_entry,
    minimum_condition_number,
)
from repro.core.privacy import amplification, satisfies_amplification
from repro.exceptions import MatrixError, PrivacyError
from repro.stats.linalg import condition_number, is_markov_matrix, is_symmetric

gamma_matrices = st.builds(
    GammaDiagonalMatrix,
    n=st.integers(min_value=2, max_value=40),
    gamma=st.floats(min_value=1.05, max_value=100.0),
)


class TestConstruction:
    def test_paper_entries(self):
        """gamma=19, n=2000 (CENSUS): x = 1/2018."""
        matrix = GammaDiagonalMatrix(n=2000, gamma=19.0)
        assert matrix.x == pytest.approx(1.0 / 2018.0)
        assert matrix.diagonal == pytest.approx(19.0 / 2018.0)

    def test_gamma_must_exceed_one(self):
        with pytest.raises(PrivacyError):
            GammaDiagonalMatrix(n=4, gamma=1.0)

    def test_domain_size_at_least_two(self):
        with pytest.raises(MatrixError):
            GammaDiagonalMatrix(n=1, gamma=19.0)


class TestPaperProperties:
    @given(gamma_matrices)
    @settings(max_examples=60)
    def test_is_markov(self, matrix):
        """Satisfies paper Eq. (1)."""
        assert is_markov_matrix(matrix.to_dense())

    @given(gamma_matrices)
    @settings(max_examples=60)
    def test_is_symmetric_toeplitz(self, matrix):
        dense = matrix.to_dense()
        assert is_symmetric(dense)
        # Toeplitz: constant along diagonals.
        assert np.allclose(np.diag(dense, 1), dense[0, 1])

    @given(gamma_matrices)
    @settings(max_examples=60)
    def test_amplification_is_exactly_gamma(self, matrix):
        """The Eq.-2 privacy constraint holds with equality."""
        assert amplification(matrix.to_dense()) == pytest.approx(matrix.gamma)
        assert matrix.amplification() == pytest.approx(matrix.gamma)

    @given(gamma_matrices)
    @settings(max_examples=40)
    def test_condition_number_matches_dense(self, matrix):
        assert matrix.condition_number() == pytest.approx(
            condition_number(matrix.to_dense()), rel=1e-6
        )

    def test_condition_number_formula(self):
        """c = (gamma + n - 1)/(gamma - 1) = 1 + n/(gamma-1) (Fig. 4)."""
        matrix = GammaDiagonalMatrix(n=2000, gamma=19.0)
        assert matrix.condition_number() == pytest.approx(2018.0 / 18.0)
        assert matrix.condition_number() == pytest.approx(1 + 2000 / 18.0, rel=1e-3)

    @given(gamma_matrices)
    @settings(max_examples=60)
    def test_eigenvalues(self, matrix):
        """Markov eigenvalue 1 plus (gamma-1)x with multiplicity n-1."""
        lam1, lam2 = matrix.eigenvalues()
        assert lam1 == pytest.approx(1.0)
        assert lam2 == pytest.approx((matrix.gamma - 1.0) * matrix.x)

    @given(gamma_matrices)
    @settings(max_examples=40)
    def test_solve_matches_dense_solve(self, matrix):
        rhs = np.linspace(1.0, 2.0, matrix.n)
        expected = np.linalg.solve(matrix.to_dense(), rhs)
        assert np.allclose(matrix.solve(rhs), expected, atol=1e-8)

    @given(gamma_matrices)
    @settings(max_examples=40)
    def test_matvec_matches_dense(self, matrix):
        vec = np.linspace(-1.0, 1.0, matrix.n)
        assert np.allclose(matrix.matvec(vec), matrix.to_dense() @ vec)

    def test_large_domain_without_densifying(self):
        """Closed forms work at sizes where a dense matrix would be 1.8 TB."""
        matrix = GammaDiagonalMatrix(n=500_000, gamma=19.0)
        rhs = np.ones(matrix.n)
        solution = matrix.solve(rhs)
        assert np.allclose(matrix.matvec(solution), rhs, atol=1e-8)


class TestOptimality:
    """The paper's main theorem: minimal condition number under Eq. 2."""

    def test_gamma_diagonal_meets_bound(self):
        matrix = GammaDiagonalMatrix(n=10, gamma=19.0)
        assert matrix.condition_number() == pytest.approx(
            minimum_condition_number(10, 19.0)
        )

    def test_diagonal_meets_eq17_bound(self):
        matrix = GammaDiagonalMatrix(n=10, gamma=19.0)
        assert matrix.diagonal == pytest.approx(maximum_diagonal_entry(10, 19.0))

    @given(
        st.integers(min_value=2, max_value=8),
        st.floats(min_value=1.5, max_value=50.0),
        st.floats(min_value=0.0, max_value=0.99),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60)
    def test_no_random_markov_matrix_beats_the_bound(self, n, gamma, fraction, seed):
        """Symmetric positive-definite Markov matrices inside the gamma
        bound never beat Eq. 18's condition number or Eq. 17's diagonal.

        Each draw mixes the optimum with a random symmetric circulant
        ``C`` whose raw entries lie in ``[1, gamma]``:
        ``(1 - t) A_GD + t C`` stays symmetric, Markov and inside the
        bound, and it is positive definite for
        ``t < (gamma-1)x / (1 + (gamma-1)x)`` because ``A_GD``'s smallest
        eigenvalue is ``(gamma-1)x`` and ``C``'s is at least -1.
        """
        optimum = GammaDiagonalMatrix(n, gamma)
        keep = (gamma - 1.0) * optimum.x
        t = fraction * keep / (1.0 + keep)
        rng = np.random.default_rng(seed)
        half = rng.uniform(1.0, gamma, size=n // 2 + 1)
        first_row = half[np.minimum(np.arange(n), n - np.arange(n))]
        circulant = first_row[(np.arange(n)[None, :] - np.arange(n)[:, None]) % n]
        circulant /= first_row.sum()
        matrix = (1.0 - t) * optimum.to_dense() + t * circulant

        assert is_symmetric(matrix) and is_markov_matrix(matrix)
        assert satisfies_amplification(matrix, gamma, rtol=1e-9)
        eigs = np.linalg.eigvalsh(matrix)
        assert eigs.min() > 0.0
        bound = minimum_condition_number(n, gamma)
        assert eigs.max() / eigs.min() >= bound * (1 - 1e-9)
        assert np.diag(matrix).max() <= maximum_diagonal_entry(n, gamma) * (1 + 1e-12)

    def test_bound_validation(self):
        with pytest.raises(PrivacyError):
            minimum_condition_number(10, 1.0)
        with pytest.raises(MatrixError):
            minimum_condition_number(1, 19.0)
        with pytest.raises(PrivacyError):
            maximum_diagonal_entry(10, 0.5)
        with pytest.raises(MatrixError):
            maximum_diagonal_entry(1, 19.0)


class TestMixtureDecomposition:
    """Basis of the vectorized sampler: keep w.p. (gamma-1)x, else uniform."""

    @given(gamma_matrices)
    @settings(max_examples=60)
    def test_mixture_reproduces_entries(self, matrix):
        q = matrix.keep_probability
        n = matrix.n
        diag = q + (1.0 - q) / n
        off = (1.0 - q) / n
        assert diag == pytest.approx(matrix.diagonal)
        assert off == pytest.approx(matrix.off_diagonal)

    @given(gamma_matrices)
    def test_keep_probability_is_small_eigenvalue(self, matrix):
        assert matrix.keep_probability == pytest.approx(matrix.eigenvalues()[1])
