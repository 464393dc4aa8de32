"""Property-based invariants (Hypothesis) over randomly drawn schemas.

Four families of properties:

* the engine's DET-GD sampler and the paper's sequential algorithm
  (:mod:`sequential_sampler`) realise the same (analytic) transition
  matrix;
* closed-form reconstruction inverts exactly: counts pushed through the
  gamma-diagonal matrix come back unchanged, so reconstructing
  *unperturbed* (identity-perturbed) counts is the identity;
* ``clip_counts`` is idempotent (with and without renormalisation);
* schema encode/decode round-trips, and joint-count marginalisation
  agrees with direct subset counting, over random schemas and data.

Empirical checks use totals large enough (and tolerances loose enough)
that they are deterministic pass/fail functions of the drawn example --
no flaky re-runs.
"""

from __future__ import annotations

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import GammaDiagonalPerturbation
from repro.core.gamma_diagonal import GammaDiagonalMatrix
from repro.core.reconstruction import clip_counts, reconstruct_counts
from repro.data.dataset import CategoricalDataset
from repro.data.schema import Attribute, Schema
from sequential_sampler import perturb_sequential

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------


def schemas(max_attributes=3, max_cardinality=4):
    """Random small schemas (joint sizes up to 4**3 = 64)."""

    def build(cards):
        return Schema(
            [
                Attribute(f"a{i}", [f"c{j}" for j in range(card)])
                for i, card in enumerate(cards)
            ]
        )

    return st.lists(
        st.integers(2, max_cardinality), min_size=1, max_size=max_attributes
    ).map(build)


SEEDS = st.integers(0, 2**32 - 1)


def _random_records(schema, seed, n):
    rng = np.random.default_rng(seed)
    cards = np.asarray(schema.cardinalities)
    return rng.integers(0, cards, size=(n, schema.n_attributes))


# ----------------------------------------------------------------------
# samplers realise the same transition matrix
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    schema=schemas(max_attributes=2, max_cardinality=3),
    gamma=st.floats(5.0, 25.0),
    seed=SEEDS,
)
def test_vectorized_and_sequential_realise_same_transition_matrix(
    schema, gamma, seed
):
    """Both samplers' empirical columns match the analytic gamma-diagonal
    column (TV distance), hence each other."""
    n = schema.joint_size
    n_trials = 20_000
    rng = np.random.default_rng(seed)
    original = int(rng.integers(n))
    dataset = CategoricalDataset.from_joint_indices(
        schema, np.full(n_trials, original)
    )
    matrix = GammaDiagonalMatrix(n=n, gamma=gamma)
    analytic = np.full(n, matrix.x)
    analytic[original] = matrix.diagonal

    samplers = {
        "vectorized": GammaDiagonalPerturbation(schema, gamma).perturb,
        "sequential": functools.partial(perturb_sequential, gamma),
    }
    for method, perturb in samplers.items():
        perturbed = perturb(dataset, seed=rng)
        freq = np.bincount(perturbed.joint_indices(), minlength=n) / n_trials
        tv = 0.5 * np.abs(freq - analytic).sum()
        # E[TV] ~ sqrt(n / (2*pi*n_trials)) ~ 0.009 for n=9; 0.05 is
        # many standard deviations away yet far below any structural
        # mismatch (swapping diagonal and off-diagonal shifts TV by
        # ~0.3 at these gammas).
        assert tv < 0.05, f"{method} sampler TV={tv:.4f}"


# ----------------------------------------------------------------------
# reconstruction inverts exactly
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 60),
    gamma=st.floats(1.2, 40.0),
    seed=SEEDS,
)
def test_reconstruction_inverts_the_forward_map(n, gamma, seed):
    """reconstruct_counts(A, A @ X) == X through the closed form."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 1_000, size=n).astype(float)
    matrix = GammaDiagonalMatrix(n=n, gamma=gamma)
    observed = matrix.matvec(counts)
    estimate = reconstruct_counts(matrix, observed)
    assert np.allclose(estimate, counts, atol=1e-6 * max(1.0, counts.max()))


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 60), seed=SEEDS)
def test_reconstruction_of_unperturbed_counts_is_identity(n, seed):
    """With the identity matrix (no perturbation), Y = X and the solver
    must return the counts untouched."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 1_000, size=n).astype(float)
    estimate = reconstruct_counts(np.eye(n), counts)
    assert np.allclose(estimate, counts)


# ----------------------------------------------------------------------
# clip_counts idempotence
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=50,
    ),
    renormalize=st.booleans(),
)
def test_clip_counts_is_idempotent(values, renormalize):
    once = clip_counts(np.array(values), renormalize=renormalize)
    twice = clip_counts(once, renormalize=renormalize)
    assert (once >= 0).all()
    assert np.allclose(once, twice, rtol=1e-12, atol=1e-12)


# ----------------------------------------------------------------------
# schema round-trips and marginalisation
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(schema=schemas(), seed=SEEDS, n=st.integers(0, 200))
def test_schema_encode_decode_roundtrip(schema, seed, n):
    records = _random_records(schema, seed, n)
    joint = schema.encode(records)
    assert joint.shape == (n,)
    if n:
        assert joint.min() >= 0 and joint.max() < schema.joint_size
    assert np.array_equal(schema.decode(joint), records)


@settings(max_examples=50, deadline=None)
@given(schema=schemas(), seed=SEEDS)
def test_decode_encode_roundtrip_over_full_domain(schema, seed):
    joint = np.arange(schema.joint_size, dtype=np.int64)
    rng = np.random.default_rng(seed)
    rng.shuffle(joint)
    assert np.array_equal(schema.encode(schema.decode(joint)), joint)


@settings(max_examples=50, deadline=None)
@given(schema=schemas(), seed=SEEDS, n=st.integers(1, 300))
def test_marginalized_joint_counts_match_subset_counts(schema, seed, n):
    """The streaming pipeline's subset answers equal direct counting."""
    dataset = CategoricalDataset(schema, _random_records(schema, seed, n))
    joint_counts = dataset.joint_counts()
    rng = np.random.default_rng(seed + 1)
    m = schema.n_attributes
    size = int(rng.integers(1, m + 1))
    positions = tuple(rng.permutation(m)[:size].tolist())
    assert np.array_equal(
        schema.marginalize_counts(joint_counts, positions),
        dataset.subset_counts(positions),
    )


@settings(max_examples=50, deadline=None)
@given(schema=schemas(), seed=SEEDS, n=st.integers(1, 200))
def test_accumulator_totals_are_chunk_split_invariant(schema, seed, n):
    """Folding any split of the stream yields the same totals."""
    from repro.pipeline import JointCountAccumulator

    records = _random_records(schema, seed, n)
    whole = JointCountAccumulator(schema).update(records)
    rng = np.random.default_rng(seed + 1)
    split = sorted(rng.integers(0, n + 1, size=2).tolist())
    parts = JointCountAccumulator(schema)
    for chunk in np.split(records, split):
        parts.update(chunk)
    assert np.array_equal(whole.counts, parts.counts)
    assert whole.n_records == parts.n_records
