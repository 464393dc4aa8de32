"""Tests for repro.core.reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gamma_diagonal import GammaDiagonalMatrix
from repro.core.reconstruction import (
    clip_counts,
    em_reconstruct,
    reconstruct_counts,
    reconstruction_matrix_for,
)
from repro.exceptions import ReconstructionError


@pytest.fixture
def warner_matrix():
    return np.array([[0.7, 0.3], [0.3, 0.7]])


class TestLinearMethods:
    def test_solve_exact_on_expected_counts(self, warner_matrix):
        x = np.array([300.0, 700.0])
        y = warner_matrix @ x
        assert reconstruct_counts(warner_matrix, y) == pytest.approx(list(x))

    def test_lstsq_matches_solve_for_invertible(self, warner_matrix, rng):
        y = rng.uniform(10, 100, size=2)
        solve = reconstruct_counts(warner_matrix, y, method="solve")
        lstsq = reconstruct_counts(warner_matrix, y, method="lstsq")
        assert np.allclose(solve, lstsq)

    def test_solve_uses_closed_form_objects(self):
        matrix = GammaDiagonalMatrix(n=50, gamma=9.0)
        x = np.arange(50, dtype=float)
        y = matrix.matvec(x)
        assert np.allclose(reconstruct_counts(matrix, y), x, atol=1e-8)

    def test_unknown_method(self, warner_matrix):
        with pytest.raises(ReconstructionError):
            reconstruct_counts(warner_matrix, np.ones(2), method="nope")

    def test_non_1d_observed(self, warner_matrix):
        with pytest.raises(ReconstructionError):
            reconstruct_counts(warner_matrix, np.ones((2, 2)))

    def test_singular_solve_raises(self):
        with pytest.raises(ReconstructionError):
            reconstruct_counts(np.full((2, 2), 0.5), np.ones(2))

    def test_lstsq_survives_singular(self):
        result = reconstruct_counts(np.full((2, 2), 0.5), np.ones(2), method="lstsq")
        assert np.all(np.isfinite(result))

    def test_bad_matrix_type(self):
        with pytest.raises(ReconstructionError):
            reconstruct_counts("not a matrix", np.ones(2))


class TestEM:
    def test_recovers_distribution(self, warner_matrix):
        x = np.array([250.0, 750.0])
        y = warner_matrix @ x
        estimate = em_reconstruct(warner_matrix, y)
        assert estimate == pytest.approx(list(x), rel=1e-4)

    def test_always_non_negative(self, warner_matrix):
        # Linear reconstruction would go negative on this input.
        y = np.array([95.0, 5.0])
        linear = reconstruct_counts(warner_matrix, y)
        assert linear.min() < 0
        em = reconstruct_counts(warner_matrix, y, method="em")
        assert em.min() >= 0

    def test_preserves_total_mass(self, warner_matrix, rng):
        y = rng.uniform(1, 50, size=2)
        em = em_reconstruct(warner_matrix, y)
        assert em.sum() == pytest.approx(y.sum())

    def test_zero_observation(self, warner_matrix):
        assert np.all(em_reconstruct(warner_matrix, np.zeros(2)) == 0)

    def test_negative_observation_rejected(self, warner_matrix):
        with pytest.raises(ReconstructionError):
            em_reconstruct(warner_matrix, np.array([-1.0, 2.0]))

    def test_non_square_rejected(self):
        with pytest.raises(ReconstructionError):
            em_reconstruct(np.ones((2, 3)), np.ones(2))

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20)
    def test_em_close_to_linear_on_consistent_data(self, seed):
        """On exactly-consistent observations with an interior solution,
        EM and the exact inverse agree."""
        rng = np.random.default_rng(seed)
        matrix = GammaDiagonalMatrix(n=5, gamma=10.0).to_dense()
        x = rng.uniform(10, 100, size=5)
        y = matrix @ x
        em = em_reconstruct(matrix, y, n_iterations=5000, tol=1e-14)
        assert np.allclose(em, x, rtol=1e-3)


class TestEMSolverLane:
    """EM is no fallback lane for ``method="portfolio"``.

    Least squares minimises the residual EM would be judged by, so on a
    system least squares cannot answer EM plateaus short of the bound.
    """

    def test_no_target_keeps_the_historical_plateau_contract(self):
        # Rank-1 system, inconsistent observation: A p is [0.5, 0.5]
        # for every distribution p, so the residual never moves.
        # Plateauing at the constrained optimum is success.
        matrix = np.full((2, 2), 0.5)
        y = np.array([95.0, 5.0])
        estimate = em_reconstruct(matrix, y)
        assert np.all(estimate >= 0)
        assert estimate.sum() == pytest.approx(y.sum())


class TestClip:
    def test_clips_negatives(self):
        assert clip_counts(np.array([-1.0, 2.0])).tolist() == [0.0, 2.0]

    def test_renormalize_preserves_total(self):
        clipped = clip_counts(np.array([-10.0, 60.0, 50.0]), renormalize=True)
        assert clipped.sum() == pytest.approx(100.0)
        assert clipped[0] == 0.0

    def test_no_positive_mass(self):
        clipped = clip_counts(np.array([-1.0, -2.0]), renormalize=True)
        assert np.all(clipped == 0)


class TestReconstructionMatrixFor:
    def test_gamma_diagonal_stays_structured(self):
        matrix = GammaDiagonalMatrix(n=1000, gamma=19.0)
        structured = reconstruction_matrix_for(matrix)
        assert hasattr(structured, "solve")
        assert structured.n == 1000

    def test_dense_falls_through(self, warner_matrix):
        assert reconstruction_matrix_for(warner_matrix) is warner_matrix
