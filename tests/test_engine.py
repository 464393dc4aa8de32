"""Tests for repro.core.engine (perturbation samplers)."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from realise_reference import realise_exact, realise_reference

from repro.core.engine import (
    GammaDiagonalPerturbation,
    MatrixPerturbation,
    RandomizedGammaDiagonalPerturbation,
    _realise_diagonal_or_other,
)
from repro.core.gamma_diagonal import GammaDiagonalMatrix
from repro.data.dataset import CategoricalDataset
from repro.exceptions import DataError, ExperimentError, MatrixError
from repro.mechanisms import registry
from sequential_sampler import perturb_sequential


def empirical_transition(schema, perturb, original_value, n_trials, seed):
    """Empirical distribution of perturb(original_value) over I_U."""
    records = np.tile(schema.decode(np.array([original_value])), (n_trials, 1))
    dataset = CategoricalDataset(schema, records)
    perturbed = perturb(dataset, seed)
    counts = np.bincount(perturbed.joint_indices(), minlength=schema.joint_size)
    return counts / n_trials


#: Every ``n`` below this bound fits the NumPy modulo oracle's ``int64``.
MODULO_ORACLE_DOMAIN = 1 << 62
#: The largest double a generator's ``random()`` can return.
LARGEST_BELOW_ONE = float(np.nextafter(1.0, 0.0))

unit_draws = st.one_of(
    st.sampled_from([0.0, LARGEST_BELOW_ONE]),
    st.floats(0.0, 1.0, exclude_max=True),
)


@st.composite
def realise_inputs(draw):
    """``(joint, diagonal, n, draws)`` for the keep-or-shift kernel.

    ``n`` spans the whole ``int64`` range with its edges (``2**62``,
    ``3 * 2**61``, ``2**63 - 1``) sampled outright; ``draws`` is the
    tail of a three-wide block half the time, the view RAN-GD passes.
    """
    n = draw(
        st.one_of(
            st.integers(2, MODULO_ORACLE_DOMAIN),
            st.integers(MODULO_ORACLE_DOMAIN + 1, 2**63 - 1),
            st.sampled_from([2, 3, MODULO_ORACLE_DOMAIN, 3 << 61, 2**63 - 1]),
        )
    )
    m = draw(st.integers(1, 12))
    cells = st.one_of(st.integers(0, n - 1), st.sampled_from([0, n - 1]))
    joint = np.array(draw(st.lists(cells, min_size=m, max_size=m)), dtype=np.int64)
    block = np.array(
        draw(st.lists(unit_draws, min_size=3 * m, max_size=3 * m))
    ).reshape(m, 3)
    draws = block[:, 1:] if draw(st.booleans()) else np.ascontiguousarray(block[:, :2])
    probabilities = st.floats(0.0, 1.0)
    if draw(st.booleans()):
        diagonal = draw(probabilities)
    else:
        diagonal = np.array(draw(st.lists(probabilities, min_size=m, max_size=m)))
    return joint, diagonal, n, draws


#: 61 binary attributes and a ternary one: ``n = 3 * 2**61``.  From
#: joint ``n - 1``, shift draw 0.999999 lands on cell
#: 6917522110112054272; the modulo form's ``joint + shift`` passes
#: ``2**63`` and wraps to 2305836091684666368.
WIDE_DOMAIN_CASE = (
    np.array([3 * 2**61 - 1]),
    0.0,
    3 * 2**61,
    np.array([[0.5, 0.999999]]),
)


class TestRealiseKernel:
    @given(realise_inputs())
    @example(WIDE_DOMAIN_CASE)
    @settings(max_examples=300, deadline=None)
    def test_equals_modulo_oracle(self, inputs):
        """The modulo-free kernel is the modulo formula, bit for bit."""
        joint, diagonal, n, draws = inputs
        joint_before, draws_before = joint.copy(), draws.copy()
        got = _realise_diagonal_or_other(joint, diagonal, n, draws)
        assert got.dtype == np.int64
        assert got.tolist() == realise_exact(
            joint, diagonal, n, draws[:, 0], draws[:, 1]
        )
        if n <= MODULO_ORACLE_DOMAIN:
            assert np.array_equal(
                got, realise_reference(joint, diagonal, n, draws[:, 0], draws[:, 1])
            )
        assert np.array_equal(joint, joint_before)
        assert np.array_equal(draws, draws_before)


class TestGammaDiagonalVectorized:
    def test_preserves_shape_and_schema(self, tiny_schema, tiny_dataset):
        engine = GammaDiagonalPerturbation(tiny_schema, gamma=19.0)
        perturbed = engine.perturb(tiny_dataset, seed=0)
        assert perturbed.n_records == tiny_dataset.n_records
        assert perturbed.schema == tiny_schema

    def test_deterministic_with_seed(self, tiny_schema, tiny_dataset):
        engine = GammaDiagonalPerturbation(tiny_schema, gamma=19.0)
        assert engine.perturb(tiny_dataset, seed=1) == engine.perturb(
            tiny_dataset, seed=1
        )

    def test_schema_mismatch_rejected(self, tiny_schema, survey_dataset):
        engine = GammaDiagonalPerturbation(tiny_schema, gamma=19.0)
        with pytest.raises(DataError):
            engine.perturb(survey_dataset, seed=0)

    def test_invalid_method_rejected(self, tiny_schema):
        # One sampler, no choice: a det-gd spec naming a sampler method
        # is an unknown parameter.
        with pytest.raises(ExperimentError, match="method"):
            registry.create("det-gd", tiny_schema, gamma=19.0, method="sequential")

    def test_empirical_matches_matrix(self, tiny_schema):
        """Empirical transition frequencies match the gamma-diagonal
        entries: the sampler realises exactly the matrix of Eq. 13."""
        engine = GammaDiagonalPerturbation(tiny_schema, gamma=5.0)
        n_trials = 200_000
        freq = empirical_transition(
            tiny_schema, engine.perturb, original_value=4, n_trials=n_trials, seed=2
        )
        expected = np.full(tiny_schema.joint_size, engine.matrix.x)
        expected[4] = engine.matrix.diagonal
        assert np.allclose(freq, expected, atol=4.0 / np.sqrt(n_trials))

    def test_high_gamma_keeps_most_records(self, tiny_schema, rng):
        records = np.stack(
            [rng.integers(0, c, size=2000) for c in tiny_schema.cardinalities], axis=1
        )
        dataset = CategoricalDataset(tiny_schema, records)
        engine = GammaDiagonalPerturbation(tiny_schema, gamma=1e6)
        perturbed = engine.perturb(dataset, seed=3)
        unchanged = np.mean(np.all(perturbed.records == dataset.records, axis=1))
        assert unchanged > 0.99

    def test_empty_dataset(self, tiny_schema):
        empty = CategoricalDataset(tiny_schema, np.empty((0, 2), dtype=int))
        engine = GammaDiagonalPerturbation(tiny_schema, gamma=19.0)
        assert engine.perturb(empty, seed=0).n_records == 0


class TestSequentialSampler:
    """The paper's Section-5 algorithm must realise the same matrix."""

    def test_empirical_matches_matrix(self, tiny_schema):
        matrix = GammaDiagonalMatrix(n=tiny_schema.joint_size, gamma=5.0)
        n_trials = 120_000
        freq = empirical_transition(
            tiny_schema,
            functools.partial(perturb_sequential, 5.0),
            original_value=2,
            n_trials=n_trials,
            seed=4,
        )
        expected = np.full(tiny_schema.joint_size, matrix.x)
        expected[2] = matrix.diagonal
        assert np.allclose(freq, expected, atol=5.0 / np.sqrt(n_trials))

    def test_agrees_with_vectorized_distribution(self, survey_schema):
        """Both samplers realise the same transition distribution."""
        n_trials = 60_000
        gamma = 3.0
        seq = functools.partial(perturb_sequential, gamma)
        vec = GammaDiagonalPerturbation(survey_schema, gamma)
        f_seq = empirical_transition(survey_schema, seq, 7, n_trials, seed=5)
        f_vec = empirical_transition(survey_schema, vec.perturb, 7, n_trials, seed=6)
        assert np.allclose(f_seq, f_vec, atol=6.0 / np.sqrt(n_trials))

    def test_three_attribute_diagonal_mass(self, survey_schema):
        """P(unchanged) must be exactly gamma*x for the full record."""
        matrix = GammaDiagonalMatrix(n=survey_schema.joint_size, gamma=8.0)
        n_trials = 50_000
        freq = empirical_transition(
            survey_schema,
            functools.partial(perturb_sequential, 8.0),
            0,
            n_trials,
            seed=7,
        )
        assert freq[0] == pytest.approx(matrix.diagonal, abs=0.006)


class TestRandomizedPerturbation:
    def test_requires_exactly_one_alpha(self, tiny_schema):
        with pytest.raises(MatrixError):
            RandomizedGammaDiagonalPerturbation(tiny_schema, 19.0)
        with pytest.raises(MatrixError):
            RandomizedGammaDiagonalPerturbation(
                tiny_schema, 19.0, alpha=0.01, relative_alpha=0.5
            )

    def test_zero_alpha_matches_deterministic_distribution(self, tiny_schema):
        engine = RandomizedGammaDiagonalPerturbation(tiny_schema, 5.0, alpha=0.0)
        n_trials = 100_000
        freq = empirical_transition(tiny_schema, engine.perturb, 1, n_trials, seed=8)
        det = engine.expected_matrix
        expected = np.full(tiny_schema.joint_size, det.x)
        expected[1] = det.diagonal
        assert np.allclose(freq, expected, atol=4.0 / np.sqrt(n_trials))

    def test_expected_transition_matches_expected_matrix(self, tiny_schema):
        """Averaged over clients, Ã realises E[Ã] = A (Eq. 21)."""
        engine = RandomizedGammaDiagonalPerturbation(
            tiny_schema, 5.0, relative_alpha=1.0
        )
        n_trials = 200_000
        freq = empirical_transition(tiny_schema, engine.perturb, 3, n_trials, seed=9)
        det = engine.expected_matrix
        expected = np.full(tiny_schema.joint_size, det.x)
        expected[3] = det.diagonal
        assert np.allclose(freq, expected, atol=4.0 / np.sqrt(n_trials))

    def test_schema_mismatch_rejected(self, tiny_schema, survey_dataset):
        engine = RandomizedGammaDiagonalPerturbation(tiny_schema, 19.0, alpha=0.0)
        with pytest.raises(DataError):
            engine.perturb(survey_dataset, seed=0)


class TestMatrixPerturbation:
    def test_identity_matrix_is_noop(self, tiny_schema, tiny_dataset):
        engine = MatrixPerturbation(tiny_schema, np.eye(tiny_schema.joint_size))
        assert engine.perturb(tiny_dataset, seed=0) == tiny_dataset

    def test_empirical_matches_arbitrary_matrix(self, tiny_schema, rng):
        n = tiny_schema.joint_size
        raw = rng.uniform(0.1, 1.0, size=(n, n))
        matrix = raw / raw.sum(axis=0, keepdims=True)
        engine = MatrixPerturbation(tiny_schema, matrix)
        n_trials = 150_000
        freq = empirical_transition(tiny_schema, engine.perturb, 5, n_trials, seed=10)
        assert np.allclose(freq, matrix[:, 5], atol=4.0 / np.sqrt(n_trials))

    def test_dimension_mismatch_rejected(self, tiny_schema):
        with pytest.raises(MatrixError):
            MatrixPerturbation(tiny_schema, np.eye(4))

    def test_matches_gamma_diagonal_engine(self, tiny_schema):
        """Dense sampling of the gamma-diagonal matrix agrees with the
        specialised engines -- three independent implementations of the
        same distribution."""
        gamma = 4.0
        dense = GammaDiagonalMatrix(tiny_schema.joint_size, gamma).to_dense()
        naive = MatrixPerturbation(tiny_schema, dense)
        fast = GammaDiagonalPerturbation(tiny_schema, gamma)
        n_trials = 120_000
        f_naive = empirical_transition(tiny_schema, naive.perturb, 0, n_trials, seed=11)
        f_fast = empirical_transition(tiny_schema, fast.perturb, 0, n_trials, seed=12)
        assert np.allclose(f_naive, f_fast, atol=6.0 / np.sqrt(n_trials))
