"""The residual-checked fallback: ``reconstruct_counts(method="portfolio")``.

The method tries the closed form (``"solve"``), then least squares
(``"lstsq"``), and accepts the first answer whose relative residual
``||A x - y|| / ||y||`` is at most 1e-6.  The load-bearing property is
that it adds no arithmetic of its own: wherever the closed form
answers, the estimate is bit-identical to ``method="solve"``, and a
rescued system gets exactly ``method="lstsq"``'s floats.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.reconstruction import reconstruct_counts
from repro.exceptions import ReconstructionError, SolverError
from repro.stats.linalg import UniformOffDiagonalMatrix, residual_norm


@st.composite
def well_conditioned_systems(draw, max_n=8):
    """A diagonally dominant dense system and its observation vector."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    elements = st.floats(
        min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False
    )
    flat = draw(
        st.lists(elements, min_size=n * n + n, max_size=n * n + n)
    )
    matrix = np.asarray(flat[: n * n], dtype=float).reshape(n, n)
    matrix += np.eye(n) * (n + 1.0)  # diagonal dominance => well-conditioned
    observed = np.asarray(flat[n * n :], dtype=float) + 2.0
    return matrix, observed


def fallback(matrix, observed):
    return reconstruct_counts(matrix, observed, method="portfolio")


class TestDeterminismContract:
    @given(well_conditioned_systems())
    def test_closed_lane_bit_identical_to_plain_solve(self, system):
        matrix, observed = system
        estimate = fallback(matrix, observed)
        np.testing.assert_array_equal(estimate, np.linalg.solve(matrix, observed))

    def test_operator_systems_use_the_historical_closed_solve(self):
        matrix = UniformOffDiagonalMatrix(6, 19.0 / 24.0, 1.0 / 24.0)
        observed = np.arange(6, dtype=float) + 1.0
        estimate = fallback(matrix, observed)
        np.testing.assert_array_equal(estimate, matrix.solve(observed))


class TestRescueLanes:
    def test_singular_system_is_rescued_by_lstsq(self):
        # Rank-1 but consistent: the closed form fails, lstsq solves
        # exactly.
        matrix = np.ones((3, 3))
        observed = np.full(3, 6.0)
        estimate = fallback(matrix, observed)
        assert residual_norm(matrix, estimate, observed) <= 1e-6
        np.testing.assert_array_equal(
            estimate, reconstruct_counts(matrix, observed, method="lstsq")
        )

    def test_every_lane_failing_raises_with_reasons(self):
        # Inconsistent singular system: the closed form fails and the
        # least-squares residual misses the bound.  The error names
        # each method's reason.
        matrix = np.ones((3, 3))
        observed = np.array([1.0, 5.0, 20.0])
        with pytest.raises(SolverError) as excinfo:
            fallback(matrix, observed)
        message = str(excinfo.value)
        assert "solve: ReconstructionError: singular system" in message
        assert "lstsq: residual" in message


def mixed_systems():
    """Eight 96-dimensional ``(matrix, observed)`` systems of each of
    three kinds: well-conditioned, ill-conditioned (heavy uniform
    mixing) and singular but consistent."""
    n = 96
    rng = np.random.default_rng(20050405)
    systems = []
    for index in range(8):
        matrix = rng.uniform(0.0, 1.0, size=(n, n)) + np.eye(n) * n
        matrix /= matrix.sum(axis=0)
        systems.append((matrix, matrix @ rng.uniform(10.0, 100.0, size=n)))
        eps = 0.02 + 0.001 * index
        mixing = np.full((n, n), (1.0 - eps) / n) + eps * np.eye(n)
        systems.append((mixing, mixing @ rng.uniform(10.0, 100.0, size=n)))
        rank1 = np.outer(np.full(n, 1.0 / n), np.ones(n))
        systems.append((rank1, rank1 @ rng.uniform(10.0, 100.0, size=n)))
    return systems


def test_mixed_systems_answer_with_the_closed_form_or_lstsq_floats():
    for matrix, observed in mixed_systems():
        singular = np.linalg.matrix_rank(matrix) < matrix.shape[0]
        np.testing.assert_array_equal(
            fallback(matrix, observed),
            reconstruct_counts(
                matrix, observed, method="lstsq" if singular else "solve"
            ),
        )


class TestValidationAndPlumbing:
    def test_rejects_non_vector_observations(self):
        with pytest.raises(ReconstructionError):
            fallback(np.eye(2), np.eye(2))


class TestIntegration:
    def test_reconstruct_counts_portfolio_matches_solve(self):
        matrix = UniformOffDiagonalMatrix(5, 19.0 / 10.0, 1.0 / 10.0)
        observed = np.array([120.0, 80.0, 60.0, 90.0, 50.0])
        direct = reconstruct_counts(matrix, observed, method="solve")
        portfolio = reconstruct_counts(matrix, observed, method="portfolio")
        np.testing.assert_array_equal(direct, portfolio)

    def test_marginal_inversion_estimator_is_solver_invariant(self):
        # The generic columnar estimator (composites, warner) solves
        # every subset system through reconstruct_counts: its supports
        # are the direct per-subset solves, and the fallback would
        # return the same floats.
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
            np.testing.assert_array_equal(direct, fallback(matrix, observed))
            dims = [schema.cardinalities[a] for a in attrs]
            cell = int(np.ravel_multi_index(itemset.values, dims))
            assert support == direct[cell] / data.n_records
