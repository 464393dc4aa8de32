"""Tests for repro.core.reconstruction."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.gamma_diagonal import GammaDiagonalMatrix
from repro.core.reconstruction import clip_counts, reconstruct_counts
from repro.exceptions import ReconstructionError
from repro.stats.linalg import UniformOffDiagonalMatrix


@pytest.fixture
def warner_matrix():
    return np.array([[0.7, 0.3], [0.3, 0.7]])


@st.composite
def well_conditioned_systems(draw, max_n=8):
    """A diagonally dominant dense system and its observation vector."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    elements = st.floats(
        min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False
    )
    flat = draw(st.lists(elements, min_size=n * n + n, max_size=n * n + n))
    matrix = np.asarray(flat[: n * n], dtype=float).reshape(n, n)
    matrix += np.eye(n) * (n + 1.0)  # diagonal dominance => well-conditioned
    observed = np.asarray(flat[n * n :], dtype=float) + 2.0
    return matrix, observed


class TestLinearMethods:
    def test_solve_exact_on_expected_counts(self, warner_matrix):
        x = np.array([300.0, 700.0])
        y = warner_matrix @ x
        assert reconstruct_counts(warner_matrix, y) == pytest.approx(list(x))

    @given(well_conditioned_systems())
    def test_dense_system_is_solved_by_lu_bit_for_bit(self, system):
        matrix, observed = system
        np.testing.assert_array_equal(
            reconstruct_counts(matrix, observed), np.linalg.solve(matrix, observed)
        )

    def test_solve_uses_closed_form_objects(self):
        matrix = GammaDiagonalMatrix(n=50, gamma=9.0)
        x = np.arange(50, dtype=float)
        y = matrix.matvec(x)
        estimate = reconstruct_counts(matrix, y)
        np.testing.assert_array_equal(estimate, matrix.solve(y))
        assert np.allclose(estimate, x, atol=1e-8)

    def test_operator_systems_use_their_closed_solve(self):
        matrix = UniformOffDiagonalMatrix(6, 19.0 / 24.0, 1.0 / 24.0)
        observed = np.arange(6, dtype=float) + 1.0
        np.testing.assert_array_equal(
            reconstruct_counts(matrix, observed), matrix.solve(observed)
        )

    def test_non_1d_observed(self, warner_matrix):
        with pytest.raises(ReconstructionError):
            reconstruct_counts(warner_matrix, np.ones((2, 2)))

    def test_operator_system_rejects_non_vector_observations(self):
        # Checked before dispatch: the operator's own solve would raise
        # MatrixError, which is no ReconstructionError.
        with pytest.raises(ReconstructionError):
            reconstruct_counts(UniformOffDiagonalMatrix(2, 0.7, 0.15), np.eye(2))

    def test_singular_solve_raises(self):
        with pytest.raises(ReconstructionError):
            reconstruct_counts(np.full((2, 2), 0.5), np.ones(2))

    def test_bad_matrix_type(self):
        with pytest.raises(ReconstructionError):
            reconstruct_counts("not a matrix", np.ones(2))

    def test_marginal_inversion_estimator_is_solver_invariant(self):
        # The generic columnar estimator (composites, warner) solves
        # every subset system through reconstruct_counts: its supports
        # are the direct per-subset solves, bit for bit.
        from repro.data.dataset import CategoricalDataset
        from repro.data.schema import Attribute, Schema
        from repro.mechanisms import CompositeMechanism
        from repro.mining.itemsets import all_items

        schema = Schema(
            [
                Attribute("s", ["no", "yes"]),
                Attribute("b", [f"c{j}" for j in range(3)]),
            ]
        )
        rng = np.random.default_rng(9)
        data = CategoricalDataset(
            schema, np.column_stack([rng.integers(0, 2, 800), rng.integers(0, 3, 800)])
        )
        mechanism = CompositeMechanism.build(
            schema,
            [
                {"name": "warner", "n_attributes": 1, "params": {"p": 0.8}},
                {"name": "det-gd", "n_attributes": 1, "params": {"gamma": 7.0}},
            ],
        )
        estimator = mechanism.build_estimator(data, seed=42)
        perturbed = mechanism.perturb(data, seed=42)
        items = all_items(schema)
        itemsets = items + [
            a.union(b) for a in items for b in items if a.attributes < b.attributes
        ]
        for itemset, support in zip(itemsets, estimator.supports(itemsets)):
            attrs = itemset.attributes
            matrix = mechanism.marginal_operator(attrs)
            observed = perturbed.subset_counts(attrs).astype(float)
            direct = (
                np.linalg.solve(matrix, observed)
                if isinstance(matrix, np.ndarray)
                else matrix.solve(observed)
            )
            dims = [schema.cardinalities[a] for a in attrs]
            cell = int(np.ravel_multi_index(itemset.values, dims))
            assert support == direct[cell] / data.n_records


class TestClip:
    def test_clips_negatives(self):
        assert clip_counts(np.array([-1.0, 2.0])).tolist() == [0.0, 2.0]

    def test_no_positive_mass(self):
        clipped = clip_counts(np.array([-1.0, -2.0]))
        assert np.all(clipped == 0)
