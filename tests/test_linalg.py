"""Tests for repro.stats.linalg."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import MatrixError
from repro.stats.linalg import (
    UniformOffDiagonalMatrix,
    condition_number,
    is_markov_matrix,
    is_symmetric,
    markov_violation,
)

uniform_family = st.builds(
    UniformOffDiagonalMatrix,
    n=st.integers(min_value=1, max_value=30),
    a=st.floats(min_value=0.01, max_value=5.0),
    b=st.floats(min_value=0.0, max_value=5.0),
)


class TestMarkovChecks:
    def test_identity_is_markov(self):
        assert is_markov_matrix(np.eye(4))

    def test_column_orientation(self):
        # Columns sum to 1, rows do not: valid in the paper's orientation.
        matrix = np.array([[0.9, 0.2], [0.1, 0.8]])
        assert is_markov_matrix(matrix)
        assert not is_markov_matrix(matrix.T @ np.diag([2.0, 1.0]))

    def test_violation_magnitude(self):
        matrix = np.array([[0.5, 0.5], [0.4, 0.5]])
        assert markov_violation(matrix) == pytest.approx(0.1)

    def test_negative_entry_detected(self):
        matrix = np.array([[1.1, 0.0], [-0.1, 1.0]])
        assert markov_violation(matrix) == pytest.approx(0.1)

    def test_non_2d_rejected(self):
        with pytest.raises(MatrixError):
            markov_violation(np.ones(3))


class TestSymmetric:
    def test_symmetric(self):
        assert is_symmetric(np.array([[1.0, 2.0], [2.0, 3.0]]))

    def test_asymmetric(self):
        assert not is_symmetric(np.array([[1.0, 2.0], [0.0, 3.0]]))

    def test_non_square(self):
        assert not is_symmetric(np.ones((2, 3)))


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(np.eye(5)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert condition_number(np.diag([4.0, 1.0])) == pytest.approx(4.0)

    def test_singular_is_inf(self):
        assert condition_number(np.zeros((3, 3))) == float("inf")

    def test_hilbert_is_ill_conditioned(self):
        """The paper's own example: a 5x5 Hilbert matrix has condition
        number around 1e5."""
        hilbert = np.array([[1.0 / (i + j + 1) for j in range(5)] for i in range(5)])
        assert 1e4 < condition_number(hilbert) < 1e6

    def test_non_square_rejected(self):
        with pytest.raises(MatrixError):
            condition_number(np.ones((2, 3)))


class TestUniformOffDiagonalMatrix:
    def test_dense_structure(self):
        m = UniformOffDiagonalMatrix(n=3, a=2.0, b=0.5)
        dense = m.to_dense()
        assert dense[0, 0] == pytest.approx(2.5)
        assert dense[0, 1] == pytest.approx(0.5)
        assert is_symmetric(dense)

    def test_bad_dimension(self):
        with pytest.raises(MatrixError):
            UniformOffDiagonalMatrix(n=0, a=1.0, b=0.0)

    @given(uniform_family)
    @settings(max_examples=60)
    def test_eigenvalues_match_dense(self, m):
        dense_eigs = np.sort(np.linalg.eigvalsh(m.to_dense()))
        lam1, lam2 = m.eigenvalues()
        if m.n == 1:
            assert dense_eigs[0] == pytest.approx(lam1, rel=1e-9, abs=1e-9)
        else:
            assert dense_eigs[-1] == pytest.approx(max(lam1, lam2), rel=1e-9, abs=1e-9)
            assert dense_eigs[0] == pytest.approx(min(lam1, lam2), rel=1e-9, abs=1e-9)

    @given(uniform_family)
    @settings(max_examples=60)
    def test_matvec_matches_dense(self, m):
        vector = np.linspace(-1.0, 1.0, m.n)
        assert np.allclose(m.matvec(vector), m.to_dense() @ vector)

    @given(uniform_family)
    @settings(max_examples=60)
    def test_solve_inverts_matvec(self, m):
        vector = np.linspace(0.5, 2.0, m.n)
        assert np.allclose(m.solve(m.matvec(vector)), vector, atol=1e-8)

    def test_condition_number_matches_svd(self):
        m = UniformOffDiagonalMatrix(n=6, a=0.3, b=0.1)
        assert m.condition_number() == pytest.approx(
            condition_number(m.to_dense()), rel=1e-9
        )

    def test_condition_number_requires_spd(self):
        with pytest.raises(MatrixError):
            UniformOffDiagonalMatrix(n=3, a=-1.0, b=0.1).condition_number()

    def test_singular_solve_rejected(self):
        singular = UniformOffDiagonalMatrix(n=2, a=0.0, b=1.0)
        with pytest.raises(MatrixError):
            singular.solve(np.ones(2))

    def test_vanishing_bulk_eigenvalue_solve_rejected(self):
        # a + n*b = 0 makes the bulk eigenvalue vanish.
        singular = UniformOffDiagonalMatrix(n=2, a=2.0, b=-1.0)
        with pytest.raises(MatrixError):
            singular.solve(np.ones(2))

    def test_shape_mismatch_rejected(self):
        m = UniformOffDiagonalMatrix(n=3, a=1.0, b=0.0)
        with pytest.raises(MatrixError):
            m.matvec(np.ones(4))
        with pytest.raises(MatrixError):
            m.solve(np.ones(2))


class TestUniformOffDiagonalAtol:
    """One atol threads through is_singular/solve/condition_number."""

    def test_near_singular_solve_respects_atol(self):
        # a = 1e-13 sits below the default 1e-9 tolerance: rejected by
        # default, accepted when the caller loosens atol to exactly 0.
        near = UniformOffDiagonalMatrix(n=4, a=1e-13, b=1.0)
        with pytest.raises(MatrixError):
            near.solve(np.ones(4))
        x = near.solve(np.ones(4), atol=0.0)
        assert np.all(np.isfinite(x))
        # cond ~ 4e13, so the roundtrip only holds to ~cond * eps.
        assert np.allclose(near.matvec(x), np.ones(4), atol=1e-2)

    def test_condition_number_boundary_matches_solve(self):
        # The same matrix must never be "solvable but condition-less"
        # (or vice versa) at one atol: both reject below, both accept
        # above.
        near = UniformOffDiagonalMatrix(n=4, a=1e-13, b=1.0)
        with pytest.raises(MatrixError):
            near.condition_number()
        cond = near.condition_number(atol=0.0)
        assert np.isfinite(cond) and cond >= 1.0

    def test_eigenvalue_exactly_at_atol_rejected(self):
        # Boundary semantics: <= atol counts as singular everywhere.
        atol = 0.5
        m = UniformOffDiagonalMatrix(n=3, a=atol, b=1.0)
        assert m.is_singular(atol)
        with pytest.raises(MatrixError):
            m.solve(np.ones(3), atol=atol)
        with pytest.raises(MatrixError):
            m.condition_number(atol=atol)
        assert not m.is_singular(atol=0.25)
        assert np.isfinite(m.condition_number(atol=0.25))

    def test_default_atol_unchanged_for_healthy_matrices(self):
        m = UniformOffDiagonalMatrix(n=6, a=0.3, b=0.1)
        assert m.condition_number() == m.condition_number(atol=0.0)
