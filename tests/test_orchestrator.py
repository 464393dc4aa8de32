"""Tests for repro.experiments.orchestrator (cells, DAG runs, caching)."""

import math
from concurrent.futures import ProcessPoolExecutor

import direct_reference as direct
import numpy as np
import pytest
from kernel_sides import KERNELS, kernel_side

from repro.data.census import generate_census
from repro.exceptions import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import (
    figure1,
    figure3_error_cells,
    figure3_support_error,
)
from repro.experiments.orchestrator import (
    Cell,
    DatasetSpec,
    Orchestrator,
    comparison_cells,
    decode_apriori,
    encode_apriori,
    exact_cell,
    int_seed,
    mechanism_cell,
    resolve_seed,
    spawn_seed,
)
from repro.experiments.sweeps import (
    classification_sweep,
    gamma_sweep,
    sample_size_sweep,
)
from repro.experiments.tables import table3
from repro.mining.reconstructing import mine_exact
from repro.stats.rng import spawn_generators
from repro.store import ResultStore

CONFIG = ExperimentConfig(seed=3, mechanisms=("DET-GD", "MASK"))
SPEC = DatasetSpec.from_name("CENSUS", n_records=4000)


def _series_equal(a, b):
    """Bit-for-bit equal series (NaN gaps at the same keys)."""
    assert a.keys() == b.keys()
    for key in a:
        left, right = a[key], b[key]
        assert (math.isnan(left) and math.isnan(right)) or left == right


class TestDatasetSpec:
    def test_from_name_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        spec = DatasetSpec.from_name("CENSUS")
        assert spec.n_records == 5000 and spec.seed == 7001
        assert DatasetSpec.from_name("HEALTH").seed == 7002

    def test_explicit_records_ignore_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        assert DatasetSpec.from_name("CENSUS", n_records=1234).n_records == 1234

    def test_unknown_dataset(self):
        with pytest.raises(ExperimentError):
            DatasetSpec.from_name("MNIST")

    def test_build_matches_generator(self):
        spec = DatasetSpec.from_name("CENSUS", n_records=500)
        assert np.array_equal(spec.build().records, generate_census(500).records)


class TestSeedSpecs:
    def test_int_seed_roundtrip(self):
        assert resolve_seed(int_seed(7)) == 7

    def test_spawn_matches_spawn_generators(self):
        streams = spawn_generators(11, 3)
        for index in range(3):
            ours = resolve_seed(spawn_seed(11, index, 3))
            assert ours.integers(2**31) == streams[index].integers(2**31)

    def test_unknown_kind(self):
        with pytest.raises(ExperimentError):
            resolve_seed({"kind": "banana"})


class TestAprioriCodec:
    def test_roundtrip_exact(self):
        result = mine_exact(generate_census(3000, seed=2), 0.02)
        payload, arrays = encode_apriori(result)
        back = decode_apriori(payload, arrays)
        assert back.min_support == result.min_support
        assert back.by_length == result.by_length


class TestCellKeys:
    def test_key_changes_with_seed_and_config(self, tmp_path):
        orch = Orchestrator(store=None, fingerprint="fp")
        exact = exact_cell(SPEC, 0.02)
        base = mechanism_cell(SPEC, "DET-GD", CONFIG, int_seed(1), exact)
        other_seed = mechanism_cell(SPEC, "DET-GD", CONFIG, int_seed(2), exact)
        other_gamma = mechanism_cell(
            SPEC, "DET-GD", ExperimentConfig(seed=3, gamma=9.0), int_seed(1), exact
        )
        keys = {orch.key_for(c) for c in (base, other_seed, other_gamma)}
        assert len(keys) == 3

    def test_key_changes_with_fingerprint(self):
        cell = exact_cell(SPEC, 0.02)
        key_a = Orchestrator(fingerprint="a").key_for(cell)
        key_b = Orchestrator(fingerprint="b").key_for(cell)
        assert key_a != key_b

    def test_env_is_not_keyed(self):
        orch = Orchestrator(store=None, fingerprint="fp")
        two = exact_cell(SPEC, 0.02, env={"workers": 2})
        four = exact_cell(SPEC, 0.02, env={"workers": 4})
        assert orch.key_for(two) == orch.key_for(four)

    def test_worker_count_is_result_invariant_env(self):
        """Cache-key sensitivity to the multi-worker count: none.

        Every worker count above one gives the spawn-per-chunk output
        (pinned by the pipeline test suite), so switching between them
        must *reuse* cached results, not fragment the cache -- the
        count rides in ``env`` and stays out of the key.
        """
        orch = Orchestrator(store=None, fingerprint="fp")
        exact = exact_cell(SPEC, 0.02)
        two, four = (
            mechanism_cell(
                SPEC,
                "DET-GD",
                ExperimentConfig(seed=3, workers=workers, chunk_size=1000),
                int_seed(1),
                exact,
            )
            for workers in (2, 4)
        )
        assert orch.key_for(two) == orch.key_for(four)
        # ...but the knob does reach the execution environment.
        assert (two.env["workers"], four.env["workers"]) == (2, 4)

    def test_mechanism_results_identical_across_backends(self, tmp_path):
        """A cell computes the same numbers on every counting kernel."""
        exact = exact_cell(SPEC, 0.02)
        cell = mechanism_cell(
            SPEC, "DET-GD", ExperimentConfig(seed=3), int_seed(1), exact
        )
        by_backend = {}
        for side in KERNELS:
            with kernel_side(side):
                results = Orchestrator(store=None).run([exact, cell])
            by_backend[side] = results[cell.name]
        _series_equal(by_backend["bitmap"]["rho"], by_backend["native"]["rho"])

    def test_irrelevant_knobs_do_not_fragment_keys(self):
        orch = Orchestrator(store=None, fingerprint="fp")
        exact = exact_cell(SPEC, 0.02)
        # relative_alpha only matters for RAN-GD; max_cut only for C&P
        low = ExperimentConfig(seed=1, relative_alpha=0.2)
        high = ExperimentConfig(seed=1, relative_alpha=0.8)
        a = mechanism_cell(SPEC, "DET-GD", low, int_seed(1), exact)
        b = mechanism_cell(SPEC, "DET-GD", high, int_seed(1), exact)
        assert orch.key_for(a) == orch.key_for(b)

    @pytest.mark.parametrize(
        "alias, name, knob, values",
        [
            ("rangd", "RAN-GD", "relative_alpha", (0.0, 1.0)),
            ("cp", "C&P", "max_cut", (2, 4)),
            ("cut-and-paste", "C&P", "max_cut", (2, 4)),
        ],
    )
    def test_alias_cells_key_like_their_mechanism(self, alias, name, knob, values):
        """An alias builds its mechanism's cell, knob included."""
        exact = exact_cell(SPEC, 0.02)

        def key_spec(mechanism, value):
            config = ExperimentConfig(seed=3, **{knob: value})
            return mechanism_cell(
                SPEC, mechanism, config, int_seed(1), exact
            ).key_spec()

        low, high = values
        assert key_spec(alias, low) == key_spec(name, low)
        assert key_spec(alias, high) == key_spec(name, high)
        assert key_spec(alias, low) != key_spec(alias, high)

    def test_figure3_cells_follow_the_config(self):
        """Every Figure-3 cell carries the config's protocol and pipeline."""
        config = ExperimentConfig(
            seed=3, protocol="apriori", workers=2, chunk_size=1000
        )
        _, det, ran = figure3_error_cells("CENSUS", [0.0, 1.0], config, 4000)
        for cell in (det, *ran.values()):
            assert cell.params["protocol"] == "apriori"
            assert cell.params["pipeline"] == {"seeding": "spawn", "chunk_size": 1000}
            assert cell.env == {"workers": 2, "chunk_size": 1000}
        assert [cell.params["relative_alpha"] for cell in ran.values()] == [0.0, 1.0]

    def test_multiworker_pipeline_is_keyed(self):
        orch = Orchestrator(store=None, fingerprint="fp")
        exact = exact_cell(SPEC, 0.02)
        one_shot = mechanism_cell(SPEC, "DET-GD", CONFIG, int_seed(1), exact)
        serial_config = ExperimentConfig(
            seed=3, mechanisms=CONFIG.mechanisms, workers=1, chunk_size=1000
        )
        spawn_config = ExperimentConfig(
            seed=3, mechanisms=CONFIG.mechanisms, workers=2, chunk_size=1000
        )
        chunked_serial = mechanism_cell(
            SPEC, "DET-GD", serial_config, int_seed(1), exact
        )
        spawned = mechanism_cell(SPEC, "DET-GD", spawn_config, int_seed(1), exact)
        # workers=1 chunked output is bit-identical to one-shot: same key.
        assert orch.key_for(one_shot) == orch.key_for(chunked_serial)
        # spawn-seeded multi-worker output differs: distinct key.
        assert orch.key_for(one_shot) != orch.key_for(spawned)


class TestOrchestratorRuns:
    @pytest.fixture()
    def store(self, tmp_path):
        return ResultStore(tmp_path / "store")

    def test_cold_then_warm(self, store):
        _, cells = comparison_cells(SPEC, CONFIG)
        cold = Orchestrator(store=store)
        results = cold.run(cells)
        assert cold.stats.misses == len(cells)
        assert cold.stats.mechanism_runs == len(CONFIG.mechanisms)

        warm = Orchestrator(store=store)
        cached = warm.run(cells)
        assert warm.stats.hits == len(cells)
        assert warm.stats.misses == 0 and warm.stats.mechanism_runs == 0
        for cell in cells[1:]:
            _series_equal(results[cell.name]["rho"], cached[cell.name]["rho"])

    def test_matches_legacy_run_comparison(self, store):
        _, cells = comparison_cells(SPEC, CONFIG)
        results = Orchestrator(store=store).run(cells)
        legacy = direct.comparison_series(SPEC.name, CONFIG, SPEC.n_records)
        for mechanism, cell in zip(CONFIG.mechanisms, cells[1:]):
            for metric in legacy:
                _series_equal(legacy[metric][mechanism], results[cell.name][metric])

    def test_force_recomputes(self, store):
        cells = [exact_cell(SPEC, 0.02)]
        Orchestrator(store=store).run(cells)
        forced = Orchestrator(store=store, force=True)
        forced.run(cells)
        assert forced.stats.hits == 0 and forced.stats.misses == 1

    def test_no_store_always_computes(self):
        orch = Orchestrator(store=None)
        orch.run([exact_cell(SPEC, 0.02)])
        assert orch.stats.misses == 1

    def test_memo_serves_repeat_runs(self, store):
        orch = Orchestrator(store=store)
        cells = [exact_cell(SPEC, 0.02)]
        orch.run(cells)
        orch.run(cells)
        assert orch.stats.hits == 0 and orch.stats.misses == 1

    def test_corrupted_entry_recomputed(self, store):
        cells = [exact_cell(SPEC, 0.02)]
        first = Orchestrator(store=store)
        first.run(cells)
        key = first.key_for(cells[0])
        store._json_path(key).write_bytes(b"garbage")
        again = Orchestrator(store=store)
        again.run(cells)
        assert again.stats.misses == 1
        assert store.get(key) is not None

    def test_unknown_dep_and_cycle_detected(self, store):
        exact = exact_cell(SPEC, 0.02)
        dangling = mechanism_cell(SPEC, "DET-GD", CONFIG, int_seed(1), exact)
        with pytest.raises(ExperimentError):
            Orchestrator(store=store).run([dangling])
        loop = Cell(
            name="loop",
            func="exact",
            params={"dataset": SPEC.spec(), "min_support": 0.02},
            deps=("loop",),
        )
        with pytest.raises(ExperimentError):
            Orchestrator(store=store).run([loop])

    def test_multi_dep_cells_rejected(self, store):
        exact_a = exact_cell(SPEC, 0.02)
        exact_b = exact_cell(SPEC, 0.05)
        greedy = Cell(
            name="greedy",
            func="mechanism",
            params={"dataset": SPEC.spec()},
            deps=(exact_a.name, exact_b.name),
        )
        with pytest.raises(ExperimentError):
            Orchestrator(store=store).run([exact_a, exact_b, greedy])

    def test_conflicting_cell_names_rejected(self, store):
        params_a = {"dataset": SPEC.spec(), "min_support": 0.02}
        params_b = {"dataset": SPEC.spec(), "min_support": 0.05}
        a = Cell(name="x", func="exact", params=params_a)
        b = Cell(name="x", func="exact", params=params_b)
        with pytest.raises(ExperimentError):
            Orchestrator(store=store).run([a, b])

    def test_parallel_jobs_match_serial(self, store, tmp_path):
        _, cells = comparison_cells(SPEC, CONFIG)
        serial = Orchestrator(store=store).run(cells)
        parallel = Orchestrator(store=ResultStore(tmp_path / "p"), jobs=2).run(cells)
        for cell in cells[1:]:
            _series_equal(serial[cell.name]["rho"], parallel[cell.name]["rho"])

    def test_jobs_with_multiworker_cells(self, store):
        """A pool-run cell may itself fan out (nested perturbation pool)."""
        spec = DatasetSpec.from_name("CENSUS", n_records=2000)
        config = ExperimentConfig(
            seed=3, mechanisms=("DET-GD",), workers=2, chunk_size=500
        )
        _, cells = comparison_cells(spec, config)
        results = Orchestrator(store=store, jobs=2).run(cells)
        assert results[cells[1].name]["mechanism"] == "DET-GD"

    def test_pool_never_outnumbers_the_pending_cells(self, store, monkeypatch):
        """A forked pool starts all its workers at the first submit, so
        ``jobs=8`` over two pending cells must ask for two, and over one
        cell for none (it is computed inline)."""
        started = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(
            "repro.experiments.orchestrator.ProcessPoolExecutor", RecordingPool
        )
        Orchestrator(store=store, jobs=8).run(
            [exact_cell(SPEC, 0.02), exact_cell(SPEC, 0.05)]
        )
        assert started == [2]
        Orchestrator(store=store, jobs=8).run([exact_cell(SPEC, 0.1)])
        assert started == [2]

    def test_nan_error_values_cache_cleanly(self, store):
        """NaN rho (the documented per-length gap) must roundtrip, not crash."""
        spec = DatasetSpec.from_name("CENSUS", n_records=1500)
        config = ExperimentConfig(seed=1, gamma=999.0, protocol="apriori")
        exact = exact_cell(spec, 0.02)
        cell = mechanism_cell(spec, "C&P", config, int_seed(1), exact)
        cold = Orchestrator(store=store).run([exact, cell])
        rho = cold[cell.name]["rho"]
        assert any(math.isnan(value) for value in rho.values()), (
            "repro setup should produce at least one per-length gap"
        )
        warm = Orchestrator(store=store)
        cached = warm.run([exact, cell])
        assert warm.stats.misses == 0
        _series_equal(rho, cached[cell.name]["rho"])

    def test_invalid_jobs(self):
        with pytest.raises(ExperimentError):
            Orchestrator(jobs=0)


class TestHighLevelIntegration:
    """Every builder against the direct oracle
    (``tests/direct_reference.py``), bit for bit: without an
    orchestrator (an in-memory one) and on a store-backed one."""

    @pytest.fixture()
    def orchestrators(self, tmp_path):
        return (None, Orchestrator(store=ResultStore(tmp_path / "store")))

    def test_figure1_parity(self, orchestrators):
        config = ExperimentConfig(seed=5, mechanisms=("DET-GD",))
        legacy = direct.comparison_series("CENSUS", config, n_records=3000)
        for orchestrator in orchestrators:
            cells = figure1(config, n_records=3000, orchestrator=orchestrator)
            assert legacy.keys() == cells.keys()
            for panel in legacy:
                _series_equal(legacy[panel]["DET-GD"], cells[panel]["DET-GD"])

    def test_figure3_parity(self, orchestrators):
        config = ExperimentConfig(seed=6)
        kwargs = dict(length=3, alphas=[0.0, 1.0], config=config, n_records=3000)
        legacy = direct.figure3_support_error("CENSUS", **kwargs)
        for orchestrator in orchestrators:
            cells = figure3_support_error("CENSUS", **kwargs, orchestrator=orchestrator)
            assert list(legacy) == list(cells)
            for series in legacy:
                _series_equal(legacy[series], cells[series])

    def test_figure3_ran_gd_follows_the_protocol(self):
        """Under the Apriori cascade, RAN-GD runs the cascade too."""
        config = ExperimentConfig(seed=6, protocol="apriori")
        kwargs = dict(length=3, alphas=[0.5], config=config, n_records=3000)
        legacy = direct.figure3_support_error("CENSUS", **kwargs)
        cells = figure3_support_error("CENSUS", **kwargs)
        for series in legacy:
            _series_equal(legacy[series], cells[series])

    def test_table3_parity(self, orchestrators, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        legacy = direct.table3()
        for orchestrator in orchestrators:
            assert table3(orchestrator=orchestrator) == legacy

    def test_gamma_sweep_parity(self, orchestrators):
        config = ExperimentConfig(seed=7)
        spec = DatasetSpec.from_name("CENSUS", n_records=3000)
        legacy = direct.gamma_sweep(spec.build(), (9.0, 99.0), config=config, length=3)
        for orchestrator in orchestrators:
            cells = gamma_sweep(
                spec,
                gammas=(9.0, 99.0),
                config=config,
                length=3,
                orchestrator=orchestrator,
            )
            for series in legacy:
                _series_equal(legacy[series], cells[series])

    def test_sample_size_sweep_parity(self, orchestrators):
        config = ExperimentConfig(seed=8)
        sizes = (2000, 3000)
        legacy = direct.sample_size_sweep(generate_census, sizes, 3, config)
        for orchestrator in orchestrators:
            cells = sample_size_sweep(
                "CENSUS", sizes, length=3, config=config, orchestrator=orchestrator
            )
            for series in legacy:
                _series_equal(legacy[series], cells[series])

    def test_gamma_sweep_needs_spec_with_orchestrator(self, orchestrators):
        """In-memory datasets cannot be cache-keyed, with or without one."""
        for orchestrator in orchestrators:
            with pytest.raises(ExperimentError):
                gamma_sweep(generate_census(1000), orchestrator=orchestrator)

    def test_classification_sweep_parity(self, orchestrators):
        train = DatasetSpec.from_name("HEALTH", n_records=4000)
        test = DatasetSpec.from_name("HEALTH", n_records=1500, seed=99)
        legacy = direct.classification_sweep(
            train.build(), test.build(), "HEALTH", gammas=(19.0,), seed=8
        )
        for orchestrator in orchestrators:
            cells = classification_sweep(
                train, test, "HEALTH", gammas=(19.0,), seed=8, orchestrator=orchestrator
            )
            assert legacy == cells

    def test_classification_sweep_needs_int_seed(self, orchestrators):
        train = DatasetSpec.from_name("HEALTH", n_records=2000)
        for orchestrator in orchestrators:
            with pytest.raises(ExperimentError):
                classification_sweep(
                    train,
                    train,
                    "HEALTH",
                    gammas=(19.0,),
                    seed=None,
                    orchestrator=orchestrator,
                )


class TestMechanismSpecCells:
    """Cache-key canonicalisation of mechanism *specs* (registry era)."""

    #: Pre-registry cache keys of the paper line-up (CENSUS, N=5000,
    #: default config, spawn seeds, fingerprint "pinned-fingerprint"),
    #: captured on main before the Mechanism refactor.  The refactor
    #: must keep these byte-stable so warm caches survive it.
    PINNED_LEGACY_KEYS = {
        "exact:CENSUS:a064c974db": (
            "1d82ccd63ee77ca94b355db987ac2f041f9869f247d472a39935d36f1c62a54d"
        ),
        "mech:DET-GD:CENSUS:12fb021181": (
            "73140ba1a9b547cb22be4641995de4cda100423c028f4cfddc904ba41b74a864"
        ),
        "mech:RAN-GD:CENSUS:4e97d6bad9": (
            "8f138bd790a419c91ca240bd9c3e2c85b67e5b0ba77396e79c7b2b6e84c8ee1a"
        ),
        "mech:MASK:CENSUS:b1237d4eec": (
            "1a2e4de21b908fae90ff12f1fd69f16ea7c5e0ad1fd50b09ae68cd06b69a337a"
        ),
        "mech:C&P:CENSUS:49e7214254": (
            "149a48c6de1df39693878da7b940d5fc06b2c337d4ef0d9eb8e634036b27b353"
        ),
    }

    def _composite_spec(self, det_gamma=19.0, warner_p=0.9):
        from repro.mechanisms import MechanismSpec

        return MechanismSpec(
            "composite",
            {
                "parts": [
                    {
                        "name": "det-gd",
                        "n_attributes": 4,
                        "params": {"gamma": det_gamma},
                    },
                    {"name": "warner", "n_attributes": 1, "params": {"p": warner_p}},
                    {"name": "warner", "n_attributes": 1, "params": {"p": warner_p}},
                ]
            },
        )

    def test_legacy_paper_keys_pinned(self):
        """The four paper mechanisms' keys are unchanged by the registry
        refactor (warm caches keep hitting)."""
        from repro.store import cache_key

        spec = DatasetSpec.from_name("CENSUS", n_records=5000)
        _, cells = comparison_cells(spec, ExperimentConfig())
        observed = {
            cell.name: cache_key(cell.key_spec(), "pinned-fingerprint")
            for cell in cells
        }
        assert observed == self.PINNED_LEGACY_KEYS

    def test_spec_cell_keys_canonicalise_parameters(self):
        """A per-attribute gamma change inside a composite spec changes
        the cell key; an identical spec reproduces it."""
        orch = Orchestrator(store=None, fingerprint="fp")
        exact = exact_cell(SPEC, 0.02)
        base = mechanism_cell(
            SPEC, self._composite_spec(), CONFIG, int_seed(1), exact
        )
        same = mechanism_cell(
            SPEC, self._composite_spec(), CONFIG, int_seed(1), exact
        )
        tweaked = mechanism_cell(
            SPEC, self._composite_spec(det_gamma=9.0), CONFIG, int_seed(1), exact
        )
        assert orch.key_for(base) == orch.key_for(same)
        assert orch.key_for(base) != orch.key_for(tweaked)

    def test_spec_cell_key_ignores_config_gamma(self):
        """Spec mechanisms are self-describing: the config-level gamma
        (which does not reach them) stays out of their key."""
        orch = Orchestrator(store=None, fingerprint="fp")
        exact = exact_cell(SPEC, 0.02)
        spec = self._composite_spec()
        one = mechanism_cell(
            SPEC, spec, ExperimentConfig(seed=3, gamma=19.0), int_seed(1), exact
        )
        other = mechanism_cell(
            SPEC, spec, ExperimentConfig(seed=3, gamma=9.0), int_seed(1), exact
        )
        assert orch.key_for(one) == orch.key_for(other)

    def test_spec_cells_run_and_warm_hit(self, tmp_path):
        """A composite spec cell computes through the orchestrator and a
        second run is a pure store hit (zero mechanism runs)."""
        store = ResultStore(tmp_path / "store")
        spec = self._composite_spec()
        config = ExperimentConfig(seed=3, min_support=0.05)
        exact = exact_cell(SPEC, config.min_support)
        cell = mechanism_cell(SPEC, spec, config, int_seed(7), exact)
        cold = Orchestrator(store=store)
        results = cold.run([exact, cell])
        assert cold.stats.mechanism_runs == 1
        assert results[cell.name]["mechanism"] == "DET-GD+WARNER+WARNER"

        warm = Orchestrator(store=store)
        warm_results = warm.run([exact, cell])
        assert warm.stats.mechanism_runs == 0
        assert warm.stats.hits == 2
        assert warm_results[cell.name] == results[cell.name]
