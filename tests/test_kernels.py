"""Equivalence suite for the bit-packed support-counting kernels.

The contract under test: every kernel side is *exact* -- integer
counts identical to the per-subset ``bincount`` oracle (hence
bit-identical supports), estimator outputs equal to the oracle-fed
closed forms, and word-aligned chunk concatenation indistinguishable
from one-shot packing -- across fixed cases and Hypothesis-generated
schemas/datasets.  ``kernel_sides`` names the sides and selects them.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_sides import KERNELS, OracleCounter, kernel_side, oracle_supports
from spawn_reference import perturb_spawned

from repro.baselines.cut_and_paste import CutAndPastePerturbation
from repro.baselines.mask import MaskPerturbation
from repro.core.engine import GammaDiagonalPerturbation
from repro.data.census import census_schema
from repro.data.dataset import CategoricalDataset
from repro.data.schema import Attribute, Schema
from repro.exceptions import DataError, MiningError
from repro.mining.apriori import apriori, generate_candidates
from repro.mining.counting import (
    CutAndPasteSupportEstimator,
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
from repro.mining.kernels.counting import MAX_PATTERN_BITS
from repro.mining.reconstructing import mine_exact, mine_per_level
from repro.pipeline import (
    BitmapAccumulator,
    BitmapStreamSupportEstimator,
    PerturbationPipeline,
    mine_stream,
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


def _boolean_estimator(kind, schema, bits):
    """A MASK or C&P batch estimator and its operator over ``bits``."""
    if kind == "mask":
        operator = MaskPerturbation(schema, p=0.8)
        return MaskSupportEstimator(schema, bits, operator), operator
    operator = CutAndPastePerturbation(schema, max_cut=2, rho=0.3)
    return CutAndPasteSupportEstimator(schema, bits, operator), operator


def _scanned(operator, schema, bits, itemsets):
    """The operator's per-itemset estimates: the batch estimators' oracle."""
    return np.array(
        [
            operator.estimate_itemset_support(
                bits, itemset.boolean_positions(schema)
            )
            for itemset in itemsets
        ]
    )


@settings(max_examples=20, deadline=None)
@given(
    schema=schemas(),
    seed=SEEDS,
    kind=st.sampled_from(["mask", "cp"]),
    side=st.sampled_from(KERNELS),
)
def test_boolean_estimators_equal_per_itemset_scan(schema, seed, kind, side):
    """Every MASK and C&P batch estimate == the operator's own scan.

    Level-wise batches (the memo holds every subset), then ad-hoc
    batches on a fresh estimator: a longest itemset before its
    subsets, duplicates, and a one-shot generator.
    """
    rng = np.random.default_rng(seed)
    bits = (rng.random((150, schema.n_boolean)) < 0.4).astype(np.int8)
    level1 = all_items(schema)
    level2 = generate_candidates(level1)
    level3 = generate_candidates(level2)
    top = Itemset((attr, 0) for attr in range(min(3, schema.n_attributes)))
    subsets = [
        Itemset(items)
        for size in range(len(top) - 1, 0, -1)
        for items in combinations(top.items, size)
    ]
    mixed = level2 + level1
    rng.shuffle(mixed)
    with kernel_side(side):
        estimator, operator = _boolean_estimator(kind, schema, bits)
        for batch in (level1, level2, level3):
            assert np.array_equal(
                estimator.supports(batch), _scanned(operator, schema, bits, batch)
            )
        estimator, _ = _boolean_estimator(kind, schema, bits)
        for batch in ([top, *subsets], [level1[0], top, level1[0], top], mixed):
            got = estimator.supports(itemset for itemset in batch)
            assert np.array_equal(got, _scanned(operator, schema, bits, batch))


@pytest.mark.parametrize("side", KERNELS)
@pytest.mark.parametrize("kind", ["mask", "cp"])
def test_wide_candidates_take_the_direct_scan(kind, side, monkeypatch):
    """Past ``MAX_PATTERN_BITS`` items the operator scans the columns."""
    schema = Schema(
        [Attribute(f"a{i}", ["x", "y"]) for i in range(MAX_PATTERN_BITS + 1)]
    )
    rng = np.random.default_rng(13)
    bits = (rng.random((200, schema.n_boolean)) < 0.5).astype(np.int8)
    wide = Itemset((attr, attr % 2) for attr in range(schema.n_attributes))
    narrow = Itemset.of((0, 1), (5, 0))
    out_of_domain = Itemset((attr, 2 * (attr == 3)) for attr in range(13))
    with kernel_side(side):
        estimator, operator = _boolean_estimator(kind, schema, bits)
        expected = _scanned(operator, schema, bits, [narrow, wide])
        scans = []
        scan = operator.estimate_itemset_support
        monkeypatch.setattr(
            operator,
            "estimate_itemset_support",
            lambda bits, rows: scans.append(tuple(rows)) or scan(bits, rows),
        )
        assert np.array_equal(estimator.supports([narrow, wide]), expected)
        assert scans == [wide.boolean_positions(schema)]
        with pytest.raises(DataError, match="out of domain"):
            estimator.supports([out_of_domain])


def _census_operator(kind):
    """The gamma = 19 MASK or C&P operator of the CENSUS schema."""
    schema = census_schema()
    if kind == "mask":
        return MaskPerturbation.for_gamma(schema, 19.0)
    return CutAndPastePerturbation.for_gamma(schema, 19.0)


@pytest.mark.parametrize(
    "bits_shape, positions",
    [
        ((100, 23), [0, 0]),
        ((100, 23), [-1]),
        ((100, 23), [23]),
        ((100, 23), [1.5]),
        ((100, 23), [True]),
        ((23,), [0]),
    ],
    ids=["repeated", "negative", "past-width", "fractional", "boolean", "one-row"],
)
@pytest.mark.parametrize("kind", ["mask", "cp"])
def test_per_itemset_scans_reject_bad_positions(kind, bits_shape, positions):
    """The scans count only distinct in-range integer columns of 2-D bits.

    ``[0, 0]`` used to count one column twice, ``[-1]`` the last
    column, and ``[23]`` and ``[1.5]`` raised a bare ``IndexError``.
    """
    operator = _census_operator(kind)
    bits = (np.random.default_rng(23).random(bits_shape) < 0.5).astype(np.int8)
    scans = [operator.estimate_itemset_support]
    if kind == "mask":
        scans.append(operator.estimate_pattern_counts)
    for scan in scans:
        with pytest.raises(DataError, match="bit position|2-D"):
            scan(bits, positions)


@pytest.mark.parametrize("kind", ["mask", "cp"])
def test_level_solves_make_no_lapack_call_per_candidate(
    kind, survey_dataset, monkeypatch
):
    """MASK solves in closed form; C&P makes one ``lstsq`` per length.

    Counted over two ``mine_per_level`` runs (levels up to 3 items) on
    one operator, so the C&P bound holds over the operator's life.
    """
    calls = {"solve": 0, "lstsq": 0}

    def counted(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    schema = survey_dataset.schema
    truth = mine_exact(survey_dataset, 0.01)
    assert max(truth.by_length) >= 3
    if kind == "mask":
        operator = MaskPerturbation(schema, p=0.8)
    else:
        operator = CutAndPastePerturbation(schema, max_cut=2, rho=0.3)
    monkeypatch.setattr(np.linalg, "solve", counted("solve"))
    monkeypatch.setattr(np.linalg, "lstsq", counted("lstsq"))
    for seed in (1, 2):
        bits = operator.perturb(survey_dataset, seed=seed)
        if kind == "mask":
            estimator = MaskSupportEstimator(schema, bits, operator)
        else:
            estimator = CutAndPasteSupportEstimator(schema, bits, operator)
        mine_per_level(estimator, schema, 0.01, truth)
    if kind == "mask":
        assert calls == {"solve": 0, "lstsq": 0}
    else:
        assert calls["solve"] == 0
        assert 1 <= calls["lstsq"] <= len(truth.by_length)


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
    pipeline = PerturbationPipeline(
        GammaDiagonalPerturbation(schema, 19.0), chunk_size=stream["chunk_size"]
    )
    for side in KERNELS:
        with kernel_side(side):
            bitmaps = pipeline.accumulate_bitmaps(survey_dataset, seed=stream["seed"])
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
    """Worker-side packing returns the spawn oracle's bitmaps."""
    schema = survey_dataset.schema
    engine = GammaDiagonalPerturbation(schema, 19.0)
    pipeline = PerturbationPipeline(engine, chunk_size=512, workers=2)
    accumulator = pipeline.accumulate_bitmaps(survey_dataset, seed=3)
    expected = TransactionBitmaps.from_dataset(
        perturb_spawned(engine, survey_dataset, 3, 512)
    )
    items = all_items(schema)
    assert np.array_equal(
        BitmapSupportCounter(accumulator.bitmaps).supports(items),
        BitmapSupportCounter(expected).supports(items),
    )


def test_bitmap_stream_estimator_rejects_empty(survey_schema):
    accumulator = BitmapAccumulator(survey_schema)
    estimator = BitmapStreamSupportEstimator(accumulator, gamma=19.0)
    with pytest.raises(MiningError):
        estimator.supports([Itemset.of((0, 0))])


def test_miner_drivers_agree_across_backends(survey_dataset):
    """The facade's DET-GD mines the same itemsets as the oracle-fed form."""
    import repro

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
            mined = repro.mine(survey_dataset, 0.05, seed=33)
        assert mined.frequent() == expected


@settings(max_examples=4, deadline=None)
@given(
    schema=schemas(max_attributes=3, max_cardinality=3),
    seed=SEEDS,
    n=st.integers(1, 150),
)
def test_backend_worker_matrix_matches_spawn_reference(schema, seed, n):
    """Hypothesis: perturbed records and counts are invariant across
    worker counts, on every kernel.

    The serial spawn-per-chunk oracle pins the perturbed records; every
    worker count must reproduce them bit for bit, and on that output
    every kernel must return the ``bincount`` oracle's Apriori-level
    supports.
    """
    dataset = _random_dataset(schema, seed, n)
    engine = GammaDiagonalPerturbation(schema, 19.0)
    items = all_items(schema)
    queries = items + generate_candidates(items)[:30]
    reference = perturb_spawned(engine, dataset, seed % 1009, 48)
    expected = oracle_supports(reference, queries)
    for workers in (2, 4):
        pipeline = PerturbationPipeline(engine, chunk_size=48, workers=workers)
        perturbed = pipeline.perturb(dataset, seed=seed % 1009)
        assert np.array_equal(reference.records, perturbed.records)
    for side in KERNELS:
        with kernel_side(side):
            supports = ExactSupportCounter(reference).supports(queries)
        assert np.array_equal(expected, supports)
