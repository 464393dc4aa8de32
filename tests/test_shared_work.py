"""Work the cells of one run share: datasets, candidates, subset sizes.

``DatasetSpec.build`` hands every cell of one spec the same read-only
dataset, ``mine_per_level`` takes each level's candidates from a
value-keyed memo, and the Eq.-28 batch sizes each distinct attribute
set once.  None of it may show in a result: the unmemoised forms in
``tests/unmemoised_reference.py`` are the oracles.
"""

import numpy as np
import pytest
from unmemoised_reference import gamma_diagonal_supports, per_level_candidates

from repro.data.schema import Attribute, Schema
from repro.experiments import orchestrator
from repro.experiments.cli import main
from repro.experiments.config import ExperimentConfig
from repro.experiments.orchestrator import DatasetSpec
from repro.experiments.runner import run_mechanism
from repro.mining.apriori import AprioriResult
from repro.mining.counting import reconstruct_gamma_diagonal_supports
from repro.mining.itemsets import Itemset
from repro.mining.reconstructing import mine_exact, mine_per_level


@pytest.fixture
def fresh_memo():
    orchestrator._generate.cache_clear()
    yield
    orchestrator._generate.cache_clear()


class TestDatasetMemo:
    def test_build_returns_one_read_only_dataset(self, fresh_memo):
        spec = DatasetSpec.from_name("CENSUS", n_records=500)
        dataset = spec.build()
        assert spec.build() is dataset
        assert DatasetSpec("CENSUS", 500, spec.seed).build() is dataset
        assert not dataset.records.flags.writeable

    @pytest.mark.parametrize("mechanism", ["DET-GD", "RAN-GD", "MASK", "C&P"])
    def test_perturbing_and_mining_leave_it_unchanged(self, fresh_memo, mechanism):
        spec = DatasetSpec.from_name("HEALTH", n_records=2000)
        dataset = spec.build()
        before = dataset.records.tobytes()
        config = ExperimentConfig(min_support=0.05)
        run = run_mechanism(dataset, mechanism, config, seed=1)
        assert run.result.n_frequent > 0
        assert spec.build() is dataset
        assert dataset.records.tobytes() == before

    def test_more_specs_than_the_bound_evict_the_oldest(self, fresh_memo):
        bound = orchestrator._generate.cache_info().maxsize
        oldest = DatasetSpec.from_name("CENSUS", n_records=100)
        first = oldest.build()
        for n_records in range(101, 101 + bound):
            DatasetSpec.from_name("CENSUS", n_records=n_records).build()
        again = oldest.build()
        assert again is not first
        assert again == first

    def test_cold_frapp_all_generates_each_spec_once(
        self, fresh_memo, monkeypatch, tmp_path, capsys
    ):
        # Figures at 2000 records; Table 3 at the scaled defaults
        # (CENSUS 1000, HEALTH 2000 -- the figures' HEALTH spec).
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        calls = []
        for name, entry in list(orchestrator._DATASET_DEFAULTS.items()):
            default_n, default_seed, generate, schema = entry

            def counted(n_records, seed, name=name, generate=generate):
                calls.append((name, n_records, seed))
                return generate(n_records, seed=seed)

            monkeypatch.setitem(
                orchestrator._DATASET_DEFAULTS,
                name,
                (default_n, default_seed, counted, schema),
            )
        assert main(["all", "--records", "2000", "--cache-dir", str(tmp_path)]) == 0
        assert "Table 3" in capsys.readouterr().out
        assert sorted(calls) == [
            ("CENSUS", 1000, 7001),
            ("CENSUS", 2000, 7001),
            ("HEALTH", 2000, 7002),
        ]


class _Recorder:
    """A support source that keeps each batch and finds everything frequent."""

    def __init__(self):
        self.batches = {}

    def supports(self, itemsets):
        itemsets = list(itemsets)
        self.batches[itemsets[0].length] = itemsets
        return np.ones(len(itemsets))


def _per_level_batches(reference, schema):
    recorder = _Recorder()
    mine_per_level(recorder, schema, reference.min_support, reference)
    return recorder.batches


@pytest.fixture(scope="module")
def paper_datasets():
    return {
        name: DatasetSpec.from_name(name, n_records=20_000).build()
        for name in ("CENSUS", "HEALTH")
    }


def _hand_built_reference(unjoinable=True):
    """Level 2 holds a pair no level-1 join makes; level 3 is absent."""
    level2 = {Itemset.of((0, 0), (1, 0)): 0.3}
    if unjoinable:
        level2[Itemset.of((3, 1), (4, 0))] = 0.2
    return AprioriResult(
        min_support=0.05,
        by_length={
            1: {Itemset.of((0, 0)): 0.5, Itemset.of((1, 0)): 0.4},
            2: level2,
            4: {Itemset.of((0, 0), (1, 0), (3, 1), (4, 0)): 0.1},
        },
    )


class TestPerLevelCandidates:
    @pytest.mark.parametrize(
        "name, min_support, max_length",
        [
            ("CENSUS", 0.02, None),
            ("CENSUS", 0.05, None),
            ("HEALTH", 0.02, None),
            ("HEALTH", 0.05, None),
            ("HEALTH", 0.02, 3),
        ],
    )
    def test_mined_references_match_the_oracle(
        self, paper_datasets, name, min_support, max_length
    ):
        dataset = paper_datasets[name]
        reference = mine_exact(dataset, min_support, max_length=max_length)
        if max_length is not None:
            assert max(reference.by_length) == max_length
        expected = {
            length: per_level_candidates(reference, length)
            for length in reference.by_length
            if length > 1
        }
        # The second pass is served from the memo.
        for _ in range(2):
            batches = _per_level_batches(reference, dataset.schema)
            assert {k: v for k, v in batches.items() if k > 1} == expected

    def test_itemsets_the_join_cannot_make_are_scored(self):
        schema = DatasetSpec.from_name("CENSUS", n_records=1).schema()
        # The second reference shares level 1 but not level 2, so a memo
        # keyed on level k-1 alone would hand it the first one's list.
        for unjoinable in (True, False):
            reference = _hand_built_reference(unjoinable)
            batches = _per_level_batches(reference, schema)
            for length in (2, 4):
                assert batches[length] == per_level_candidates(reference, length)
            assert (Itemset.of((3, 1), (4, 0)) in batches[2]) == unjoinable
            assert batches[4] == list(reference.by_length[4])


def _random_batch(schema, rng, size, max_length):
    itemsets = []
    for _ in range(size):
        length = int(rng.integers(1, max_length + 1))
        attrs = rng.choice(schema.n_attributes, size=length, replace=False)
        itemsets.append(
            Itemset([(a, rng.integers(schema.cardinalities[a])) for a in attrs])
        )
    return itemsets


def _wide_schema(n_attributes=50):
    return Schema(Attribute(f"a{j}", ["w", "x", "y", "z"]) for j in range(n_attributes))


class TestEq28SubsetSizes:
    @pytest.mark.parametrize(
        "batch",
        ["mixed-lengths", "repeated-itemsets", "wide-kronecker"],
    )
    def test_bit_identical_to_per_itemset_sizes(self, batch):
        rng = np.random.default_rng(28)
        if batch == "wide-kronecker":
            schema = _wide_schema()
            itemsets = _random_batch(schema, rng, 400, max_length=25)
        else:
            schema = DatasetSpec.from_name("HEALTH", n_records=1).schema()
            itemsets = _random_batch(schema, rng, 400, schema.n_attributes)
        if batch == "repeated-itemsets":
            itemsets = itemsets[:50] * 3 + itemsets[::7]
        observed = rng.random(len(itemsets))
        got = reconstruct_gamma_diagonal_supports(schema, observed, itemsets, 19.0)
        want = gamma_diagonal_supports(schema, observed, itemsets, 19.0)
        assert np.array_equal(got, want)
