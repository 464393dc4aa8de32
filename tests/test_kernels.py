"""Equivalence suite for the bit-packed support-counting kernels.

The contract under test: every kernel side is *exact* -- integer
counts identical to the per-subset ``bincount`` oracle (hence
bit-identical supports), estimator outputs equal to the oracle-fed
closed forms, and word-aligned chunk concatenation indistinguishable
from one-shot packing -- across fixed cases and Hypothesis-generated
schemas/datasets.  ``kernel_sides`` names the sides and selects them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_sides import KERNELS, OracleCounter, kernel_side, oracle_supports

from repro.baselines.mask import MaskPerturbation
from repro.core.engine import GammaDiagonalPerturbation
from repro.data.dataset import CategoricalDataset
from repro.data.schema import Attribute, Schema
from repro.exceptions import DataError, MiningError
from repro.mining.apriori import apriori, generate_candidates
from repro.mining.counting import (
    ExactSupportCounter,
    GammaDiagonalSupportEstimator,
    MaskSupportEstimator,
    reconstruct_gamma_diagonal_supports,
)
from repro.mining.itemsets import Itemset, all_items
from repro.mining.kernels import (
    BitmapSupportCounter,
    TransactionBitmaps,
    pattern_counts,
    popcount_words,
)
from repro.mining.reconstructing import mine_exact
from repro.pipeline import (
    BitmapAccumulator,
    BitmapStreamSupportEstimator,
    PerturbationPipeline,
    mine_stream,
    stream_perturbed_bitmaps,
)

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------


def schemas(max_attributes=4, max_cardinality=4):
    """Random small schemas."""

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


def _random_dataset(schema, seed, n):
    rng = np.random.default_rng(seed)
    cards = np.asarray(schema.cardinalities)
    return CategoricalDataset(
        schema, rng.integers(0, cards, size=(n, schema.n_attributes))
    )


def _apriori_levels(schema, counter, min_support=0.01, max_levels=3):
    """Candidate batches exactly as Apriori would issue them."""
    batches = []
    candidates = all_items(schema)
    for _ in range(max_levels):
        if not candidates:
            break
        batches.append(list(candidates))
        supports = counter.supports(candidates)
        frequent = [
            itemset
            for itemset, support in zip(candidates, supports)
            if support >= min_support
        ]
        candidates = generate_candidates(frequent)
    return batches


# ----------------------------------------------------------------------
# packing primitives
# ----------------------------------------------------------------------


def test_popcount_matches_python_bit_count():
    rng = np.random.default_rng(0)
    words = rng.integers(0, 2**63, size=(5, 7), dtype=np.int64).astype(np.uint64)
    expected = np.array(
        [[int(w).bit_count() for w in row] for row in words]
    )
    assert popcount_words(words, axis=1).tolist() == expected.sum(axis=1).tolist()
    assert int(popcount_words(words)) == int(expected.sum())


@pytest.mark.parametrize("n_records", [0, 1, 63, 64, 65, 1000])
def test_item_bitmap_popcounts_equal_value_counts(survey_schema, n_records):
    dataset = _random_dataset(survey_schema, seed=n_records, n=n_records)
    bitmaps = TransactionBitmaps.from_dataset(dataset)
    for attr in range(survey_schema.n_attributes):
        counts = dataset.value_counts(attr)
        for value in range(survey_schema.cardinalities[attr]):
            row = bitmaps.words[bitmaps.item_row(attr, value)]
            assert int(popcount_words(row)) == counts[value]


def test_bitmaps_reject_bad_shapes(survey_schema):
    with pytest.raises(DataError):
        TransactionBitmaps.from_records(survey_schema, np.zeros((4, 2), dtype=int))
    with pytest.raises(DataError):
        TransactionBitmaps.from_boolean_matrix(survey_schema, np.zeros((4, 3)))
    with pytest.raises(DataError):
        TransactionBitmaps.concatenate([])


def test_bitmaps_reject_out_of_domain_records(survey_schema):
    """Bad values must raise, not bleed into a neighbour's item rows."""
    with pytest.raises(DataError):
        TransactionBitmaps.from_records(survey_schema, [[0, -1, 0]])
    with pytest.raises(DataError):
        TransactionBitmaps.from_records(survey_schema, [[3, 0, 0]])


# ----------------------------------------------------------------------
# exact counting: every kernel == the bincount oracle, bit for bit
# ----------------------------------------------------------------------


def test_levelwise_supports_bit_identical(survey_dataset):
    bitmap = ExactSupportCounter(survey_dataset)
    for batch in _apriori_levels(
        survey_dataset.schema, OracleCounter(survey_dataset), min_support=0.01
    ):
        expected = oracle_supports(survey_dataset, batch)
        got = bitmap.supports(batch)
        assert np.array_equal(expected, got)


def test_adhoc_itemsets_without_cached_prefix(survey_dataset):
    """Arbitrary queries (no level cache warm-up) still count exactly."""
    counter = BitmapSupportCounter.from_dataset(survey_dataset)
    itemsets = [
        Itemset.of((0, 2), (1, 1), (2, 0)),
        Itemset.of((2, 1)),
        Itemset.of((0, 0), (2, 1)),
    ]
    assert np.array_equal(
        oracle_supports(survey_dataset, itemsets), counter.supports(itemsets)
    )


def test_level_cache_is_used_and_exact(survey_dataset):
    """Level-k batches hit the cached (k-1) bitmaps and stay exact."""
    counter = BitmapSupportCounter.from_dataset(survey_dataset)
    items = all_items(survey_dataset.schema)
    counter.supports(items)
    assert set(counter._cache_rows) == {itemset.items for itemset in items}
    pairs = generate_candidates(items)
    got = counter.supports(pairs)
    assert np.array_equal(oracle_supports(survey_dataset, pairs), got)
    assert set(counter._cache_rows) == {itemset.items for itemset in pairs}


def test_empty_dataset_rejected(tiny_schema):
    empty = CategoricalDataset(tiny_schema, np.empty((0, 2), dtype=int))
    with pytest.raises(MiningError):
        ExactSupportCounter(empty).supports([Itemset.of((0, 0))])


@settings(max_examples=40, deadline=None)
@given(schema=schemas(), seed=SEEDS, n=st.integers(1, 300))
def test_supports_bit_identical_on_random_schemas(schema, seed, n):
    """Hypothesis: every Apriori-shaped batch counts identically."""
    dataset = _random_dataset(schema, seed, n)
    for batch in _apriori_levels(schema, OracleCounter(dataset), min_support=0.0):
        expected = oracle_supports(dataset, batch)
        for side in KERNELS:
            with kernel_side(side):
                got = ExactSupportCounter(dataset).supports(batch)
            assert np.array_equal(expected, got)


@settings(max_examples=25, deadline=None)
@given(
    schema=schemas(max_attributes=3),
    seed=SEEDS,
    n=st.integers(1, 200),
    chunk_size=st.integers(1, 97),
)
def test_chunked_merge_equals_one_shot_packing(schema, seed, n, chunk_size):
    """Word-aligned concatenation never changes any support query."""
    dataset = _random_dataset(schema, seed, n)
    one_shot = BitmapSupportCounter.from_dataset(dataset)
    accumulator = BitmapAccumulator(schema)
    for chunk in dataset.iter_chunks(chunk_size):
        accumulator.update(chunk)
    merged = BitmapSupportCounter(accumulator.bitmaps)
    assert accumulator.n_records == dataset.n_records
    items = all_items(schema)
    pairs = generate_candidates(items)
    queries = items + pairs[:50]
    assert np.array_equal(one_shot.supports(queries), merged.supports(queries))


def test_bitmap_accumulator_merge(survey_dataset):
    schema = survey_dataset.schema
    halves = list(survey_dataset.iter_chunks(survey_dataset.n_records // 2 + 1))
    left = BitmapAccumulator(schema).update(halves[0])
    right = BitmapAccumulator(schema).update(halves[1])
    left.merge(right)
    assert left.n_records == survey_dataset.n_records
    one_shot = BitmapSupportCounter.from_dataset(survey_dataset)
    merged = BitmapSupportCounter(left.bitmaps)
    items = all_items(schema)
    assert np.array_equal(one_shot.supports(items), merged.supports(items))


def test_bitmap_accumulator_rejects_schema_mismatch(survey_dataset, tiny_schema):
    accumulator = BitmapAccumulator(tiny_schema)
    with pytest.raises(DataError):
        accumulator.update(survey_dataset)
    with pytest.raises(DataError):
        BitmapAccumulator(tiny_schema).bitmaps  # noqa: B018 - empty merge


# ----------------------------------------------------------------------
# estimators: every kernel == the oracle-fed closed form
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", KERNELS)
def test_gamma_diagonal_estimator_backends_agree(
    survey_schema, survey_dataset, backend
):
    gamma = 19.0
    perturbed = GammaDiagonalPerturbation(survey_schema, gamma).perturb(
        survey_dataset, seed=5
    )
    itemsets = all_items(survey_schema) + [
        Itemset.of((0, 0), (1, 1)),
        Itemset.of((0, 1), (1, 0), (2, 1)),
    ]
    expected = reconstruct_gamma_diagonal_supports(
        survey_schema, oracle_supports(perturbed, itemsets), itemsets, gamma
    )
    with kernel_side(backend):
        got = GammaDiagonalSupportEstimator(perturbed, gamma).supports(itemsets)
    assert np.array_equal(expected, got)


def test_mask_estimator_backends_agree(survey_schema, survey_dataset):
    """Pattern counts on bitmaps == the per-candidate bit-matrix scan."""
    mask = MaskPerturbation(survey_schema, p=0.85)
    bits = mask.perturb(survey_dataset, seed=6)
    itemsets = [
        Itemset.of((0, 0)),
        Itemset.of((0, 0), (1, 1)),
        Itemset.of((0, 2), (1, 0), (2, 1)),
    ]
    scanned = [
        mask.estimate_itemset_support(bits, itemset.boolean_positions(survey_schema))
        for itemset in itemsets
    ]
    for side in KERNELS:
        with kernel_side(side):
            got = MaskSupportEstimator(survey_schema, bits, mask).supports(itemsets)
        assert np.array_equal(scanned, got)


@settings(max_examples=20, deadline=None)
@given(schema=schemas(max_attributes=3, max_cardinality=3), seed=SEEDS)
def test_mask_pattern_counts_equal_bincount(schema, seed):
    """The Möbius kernel reproduces the per-candidate bincount exactly."""
    dataset = _random_dataset(schema, seed, 150)
    mask = MaskPerturbation(schema, p=0.8)
    bits = mask.perturb(dataset, seed=seed)
    bitmaps = TransactionBitmaps.from_boolean_matrix(schema, bits)
    rng = np.random.default_rng(seed)
    positions = rng.choice(
        schema.n_boolean, size=min(3, schema.n_boolean), replace=False
    )
    positions = [int(p) for p in positions]
    k = len(positions)
    sub = np.asarray(bits)[:, positions].astype(np.int64)
    weights = 1 << np.arange(k - 1, -1, -1)
    expected = np.bincount(sub @ weights, minlength=1 << k)
    assert np.array_equal(expected, pattern_counts(bitmaps, positions))


# ----------------------------------------------------------------------
# end to end: miners and streams
# ----------------------------------------------------------------------


def test_mine_exact_backends_identical(survey_dataset):
    loops = apriori(OracleCounter(survey_dataset), survey_dataset.schema, 0.05)
    for side in KERNELS:
        with kernel_side(side):
            mined = mine_exact(survey_dataset, 0.05)
        assert mined.frequent() == loops.frequent()
        assert mined.counts_by_length() == loops.counts_by_length()


def test_mine_stream_backends_identical(survey_dataset):
    """Joint-count accumulation == bitmap accumulation, on every kernel."""
    schema = survey_dataset.schema
    stream = dict(chunk_size=700, seed=11)
    joint = mine_stream(survey_dataset, schema, 19.0, 0.05, **stream)
    engine = GammaDiagonalPerturbation(schema, 19.0)
    for side in KERNELS:
        with kernel_side(side):
            bitmaps = stream_perturbed_bitmaps(survey_dataset, engine, **stream)
            mined = apriori(BitmapStreamSupportEstimator(bitmaps, 19.0), schema, 0.05)
        assert mined.frequent() == joint.frequent()


def test_bitmap_stream_estimator_matches_materialised_path(survey_dataset):
    """workers=1 chunked bitmaps == one-shot perturb + direct estimator."""
    schema = survey_dataset.schema
    gamma = 19.0
    engine = GammaDiagonalPerturbation(schema, gamma)
    pipeline = PerturbationPipeline(engine, chunk_size=512, workers=1)
    streamed = BitmapStreamSupportEstimator(
        pipeline.accumulate_bitmaps(survey_dataset, seed=21), gamma
    )
    direct = GammaDiagonalSupportEstimator(
        engine.perturb(survey_dataset, seed=21), gamma
    )
    itemsets = all_items(schema) + [Itemset.of((0, 0), (2, 1))]
    assert np.array_equal(direct.supports(itemsets), streamed.supports(itemsets))


def test_bitmap_stream_estimator_sees_later_folds(survey_dataset):
    """Folding more chunks after a query must refresh the counter."""
    schema = survey_dataset.schema
    halves = list(survey_dataset.iter_chunks(survey_dataset.n_records // 2 + 1))
    accumulator = BitmapAccumulator(schema).update(halves[0])
    estimator = BitmapStreamSupportEstimator(accumulator, gamma=19.0)
    items = all_items(schema)
    estimator.supports(items)  # snapshot the first half
    accumulator.update(halves[1])
    got = estimator.supports(items)
    full = BitmapAccumulator(schema).update(survey_dataset)
    expected = BitmapStreamSupportEstimator(full, gamma=19.0).supports(items)
    assert np.array_equal(expected, got)


def test_accumulate_bitmaps_worker_invariance(survey_dataset):
    """Worker-side packing returns the same bitmapped supports."""
    schema = survey_dataset.schema
    engine = GammaDiagonalPerturbation(schema, 19.0)
    supports = {}
    items = all_items(schema)
    for workers in (1, 2):
        pipeline = PerturbationPipeline(
            engine, chunk_size=512, workers=workers, seeding="spawn"
        )
        accumulator = pipeline.accumulate_bitmaps(survey_dataset, seed=3)
        supports[workers] = BitmapSupportCounter(accumulator.bitmaps).supports(
            items
        )
    assert np.array_equal(supports[1], supports[2])


def test_bitmap_stream_estimator_rejects_empty(survey_schema):
    accumulator = BitmapAccumulator(survey_schema)
    estimator = BitmapStreamSupportEstimator(accumulator, gamma=19.0)
    with pytest.raises(MiningError):
        estimator.supports([Itemset.of((0, 0))])


def test_miner_drivers_agree_across_backends(survey_dataset):
    """make_miner's DET-GD mines the same itemsets as the oracle-fed form."""
    from repro.mining.reconstructing import make_miner

    schema = survey_dataset.schema
    perturbed = GammaDiagonalPerturbation(schema, 19.0).perturb(survey_dataset, seed=33)

    class OracleEstimator:
        def supports(self, itemsets):
            itemsets = list(itemsets)
            observed = oracle_supports(perturbed, itemsets)
            return reconstruct_gamma_diagonal_supports(schema, observed, itemsets, 19.0)

    expected = apriori(OracleEstimator(), schema, 0.05).frequent()
    for side in KERNELS:
        with kernel_side(side):
            mined = make_miner("det-gd", schema, 19.0).mine(
                survey_dataset, 0.05, seed=33
            )
        assert mined.frequent() == expected


@settings(max_examples=4, deadline=None)
@given(
    schema=schemas(max_attributes=3, max_cardinality=3),
    seed=SEEDS,
    n=st.integers(1, 150),
)
def test_backend_worker_dispatch_matrix_bit_identical(schema, seed, n):
    """Hypothesis: perturbed records and counts are invariant across the
    workers x dispatch grid, on every kernel.

    One reference cell (workers=1, pickle) pins the perturbed records;
    every other execution cell must reproduce them bit for bit, and on
    each cell's output every kernel must return the ``bincount``
    oracle's Apriori-level supports.
    """
    dataset = _random_dataset(schema, seed, n)
    engine = GammaDiagonalPerturbation(schema, 19.0)
    items = all_items(schema)
    queries = items + generate_candidates(items)[:30]
    reference_records = None
    reference_supports = None
    for workers in (1, 4):
        for dispatch in ("pickle", "shm"):
            pipeline = PerturbationPipeline(
                engine,
                chunk_size=48,
                workers=workers,
                seeding="spawn",
                dispatch=dispatch,
            )
            perturbed = pipeline.perturb(dataset, seed=seed % 1009)
            if reference_records is None:
                reference_records = np.asarray(perturbed.records).copy()
            else:
                assert np.array_equal(reference_records, perturbed.records)
            expected = oracle_supports(perturbed, queries)
            if reference_supports is None:
                reference_supports = expected
            assert np.array_equal(reference_supports, expected)
            for side in KERNELS:
                with kernel_side(side):
                    supports = ExactSupportCounter(perturbed).supports(queries)
                assert np.array_equal(expected, supports)
