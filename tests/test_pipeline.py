"""Tests for the streaming/multi-worker pipeline (repro.pipeline).

The load-bearing guarantees:

* chunked execution with ``workers=1`` is bit-identical to the one-shot
  ``engine.perturb()`` for the same seed, for any chunk size;
* accumulated counts are invariant to the chunk size at ``workers=1``;
  with ``workers > 1`` every output equals the serial spawn-per-chunk
  oracle (:mod:`spawn_reference`), whatever the worker count and
  whether chunks travel pickled or as ``.frd`` row spans;
* the accumulated-count support estimator matches the dataset-backed
  estimator exactly, so streaming mining equals one-shot mining;
* an ``.frd`` source streams under an anonymous-memory budget that its
  records as int64 exceed, with bit-identical counts.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from spawn_reference import perturb_spawned

from repro import api
from repro.core.engine import (
    GammaDiagonalPerturbation,
    MatrixPerturbation,
    RandomizedGammaDiagonalPerturbation,
)
from repro.core.gamma_diagonal import GammaDiagonalMatrix
from repro.data.census import generate_census
from repro.data.dataset import CategoricalDataset
from repro.data.io import iter_csv_chunks, save_csv_chunks
from repro.exceptions import DataError, ExperimentError, MiningError
from repro.mining.counting import GammaDiagonalSupportEstimator
from repro.mining.itemsets import all_items
from repro.pipeline import (
    AccumulatedSupportEstimator,
    JointCountAccumulator,
    PerturbationPipeline,
    iter_record_chunks,
    mine_stream,
    reconstruct_stream,
)

GAMMA = 19.0
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def census():
    return generate_census(8_000, seed=11)


@pytest.fixture(scope="module")
def det_engine(census):
    return GammaDiagonalPerturbation(census.schema, GAMMA)


# ----------------------------------------------------------------------
# chunk iteration
# ----------------------------------------------------------------------
class TestChunkIteration:
    def test_dataset_is_resliced(self, census):
        chunks = list(iter_record_chunks(census, census.schema, 3_000))
        assert [c.shape[0] for c in chunks] == [3_000, 3_000, 2_000]
        assert np.array_equal(np.concatenate(chunks), census.records)

    def test_iterable_items_are_resliced_not_coalesced(self, census):
        parts = [census.records[:100], census.records[100:150]]
        chunks = list(iter_record_chunks(parts, census.schema, 70))
        assert [c.shape[0] for c in chunks] == [70, 30, 50]

    def test_schema_mismatch_rejected(self, census, tiny_dataset):
        with pytest.raises(DataError):
            list(iter_record_chunks(tiny_dataset, census.schema, 100))

    def test_bad_shape_rejected(self, census):
        with pytest.raises(DataError):
            list(iter_record_chunks(np.zeros((5, 99), dtype=np.int64), census.schema, 10))

    def test_bad_chunk_size_rejected(self, census):
        with pytest.raises(DataError):
            list(iter_record_chunks(census, census.schema, 0))

    def test_dataset_iter_chunks(self, census):
        chunks = list(census.iter_chunks(3_000))
        assert all(isinstance(c, CategoricalDataset) for c in chunks)
        assert sum(c.n_records for c in chunks) == census.n_records
        assert np.array_equal(
            np.concatenate([c.records for c in chunks]), census.records
        )

    def test_csv_chunk_roundtrip(self, census, tmp_path):
        path = tmp_path / "stream.csv"
        written = save_csv_chunks(census.schema, census.iter_chunks(1_500), path)
        assert written == census.n_records
        back = list(iter_csv_chunks(census.schema, path, 2_000))
        assert [c.n_records for c in back] == [2_000, 2_000, 2_000, 2_000]
        assert np.array_equal(
            np.concatenate([c.records for c in back]), census.records
        )

    def test_perturb_stream_to_csv_roundtrip(self, census, det_engine, tmp_path):
        """Pipeline output streams straight to disk and back."""
        path = tmp_path / "perturbed.csv"
        pipeline = PerturbationPipeline(det_engine, chunk_size=2_000)
        written = save_csv_chunks(
            census.schema, pipeline.perturb_stream(census, seed=42), path
        )
        assert written == census.n_records
        back = np.concatenate(
            [c.records for c in iter_csv_chunks(census.schema, path, 3_000)]
        )
        assert np.array_equal(back, det_engine.perturb(census, seed=42).records)

    def test_csv_chunks_header_validated(self, census, tiny_schema, tmp_path):
        path = tmp_path / "stream.csv"
        save_csv_chunks(census.schema, census.iter_chunks(4_000), path)
        with pytest.raises(DataError):
            next(iter_csv_chunks(tiny_schema, path, 100))


# ----------------------------------------------------------------------
# accumulator
# ----------------------------------------------------------------------
class TestAccumulator:
    def test_matches_dataset_counts(self, census):
        acc = JointCountAccumulator(census.schema)
        for chunk in census.iter_chunks(1_000):
            acc.update(chunk)
        assert acc.n_records == census.n_records
        assert np.array_equal(acc.counts, census.joint_counts())

    def test_accepts_records_and_joint_indices(self, census):
        by_records = JointCountAccumulator(census.schema).update(census.records)
        by_joint = JointCountAccumulator(census.schema).update(
            census.joint_indices()
        )
        assert np.array_equal(by_records.counts, by_joint.counts)

    def test_subset_counts_match_dataset(self, census):
        acc = JointCountAccumulator(census.schema).update(census)
        for positions in [(0,), (2, 4), (5, 1), (0, 1, 3)]:
            assert np.array_equal(
                acc.subset_counts(positions), census.subset_counts(positions)
            )

    def test_merge(self, census):
        left = JointCountAccumulator(census.schema).update(census.records[:3_000])
        right = JointCountAccumulator(census.schema).update(census.records[3_000:])
        assert np.array_equal(left.merge(right).counts, census.joint_counts())
        assert left.n_records == census.n_records

    def test_out_of_range_rejected(self, census):
        acc = JointCountAccumulator(census.schema)
        with pytest.raises(DataError):
            acc.update_joint(np.array([census.schema.joint_size]))

    def test_fractions_empty_stream(self, census):
        acc = JointCountAccumulator(census.schema)
        assert acc.fractions().sum() == 0.0


# ----------------------------------------------------------------------
# executor determinism contract
# ----------------------------------------------------------------------
class TestPipelineDeterminism:
    @pytest.mark.parametrize("chunk_size", [100, 1_024, 7_777, 100_000])
    def test_workers1_bit_identical_to_one_shot(self, census, det_engine, chunk_size):
        pipeline = PerturbationPipeline(det_engine, chunk_size=chunk_size)
        assert pipeline.perturb(census, seed=42) == det_engine.perturb(census, seed=42)

    def test_workers1_bit_identical_for_ran_gd(self, census):
        engine = RandomizedGammaDiagonalPerturbation(
            census.schema, GAMMA, relative_alpha=0.5
        )
        pipeline = PerturbationPipeline(engine, chunk_size=900)
        assert pipeline.perturb(census, seed=3) == engine.perturb(census, seed=3)

    def test_workers1_bit_identical_for_dense_sampler(self, tiny_dataset):
        dense = GammaDiagonalMatrix(tiny_dataset.schema.joint_size, 5.0).to_dense()
        engine = MatrixPerturbation(tiny_dataset.schema, dense)
        pipeline = PerturbationPipeline(engine, chunk_size=3)
        assert pipeline.perturb(tiny_dataset, seed=6) == engine.perturb(
            tiny_dataset, seed=6
        )

    @pytest.mark.parametrize("chunk_size", [512, 2_048, 100_000])
    def test_accumulated_counts_invariant_to_chunk_size(
        self, census, det_engine, chunk_size
    ):
        reference = det_engine.perturb(census, seed=42).joint_counts()
        pipeline = PerturbationPipeline(det_engine, chunk_size=chunk_size)
        acc = pipeline.accumulate(census, seed=42)
        assert acc.n_records == census.n_records
        assert np.array_equal(acc.counts, reference)

    def test_spawn_totals_invariant_across_worker_counts(self, census, det_engine):
        reference = perturb_spawned(det_engine, census, 5, 2_048).joint_counts()
        for workers in (2, 3):
            pipeline = PerturbationPipeline(
                det_engine, chunk_size=2_048, workers=workers
            )
            acc = pipeline.accumulate(census, seed=5)
            assert acc.n_records == census.n_records
            assert np.array_equal(acc.counts, reference), workers

    def test_spawn_perturb_invariant_across_worker_counts(self, census, det_engine):
        pooled = PerturbationPipeline(
            det_engine, chunk_size=2_048, workers=2
        ).perturb(census, seed=5)
        assert pooled == perturb_spawned(det_engine, census, 5, 2_048)

    def test_spawn_accepts_arrays_and_chunk_iterables(self, census, det_engine):
        """Raw record arrays and unsized chunk iterables reach the pool
        pickled, with the same chunk boundaries as the dataset."""
        reference = perturb_spawned(det_engine, census, 5, 2_048).joint_counts()
        pipeline = PerturbationPipeline(det_engine, chunk_size=2_048, workers=2)
        for source in (census.records, iter([census.records])):
            counts = pipeline.accumulate(source, seed=5).counts
            assert np.array_equal(counts, reference)

    def test_spawn_reproducible_for_same_seed(self, census, det_engine):
        pipeline = PerturbationPipeline(det_engine, chunk_size=2_048, workers=2)
        assert pipeline.perturb(census, seed=5) == pipeline.perturb(census, seed=5)

    def test_perturb_stream_is_chunked(self, census, det_engine):
        pipeline = PerturbationPipeline(det_engine, chunk_size=3_000)
        sizes = [c.shape[0] for c in pipeline.perturb_stream(census, seed=1)]
        assert sizes == [3_000, 3_000, 2_000]

    def test_empty_dataset(self, det_engine, census):
        empty = CategoricalDataset(census.schema, census.records[:0])
        pipeline = PerturbationPipeline(det_engine, chunk_size=100)
        assert pipeline.perturb(empty, seed=0).n_records == 0
        assert pipeline.accumulate(empty, seed=0).n_records == 0

    def test_invalid_configuration_rejected(self, det_engine, census):
        with pytest.raises(ExperimentError):
            PerturbationPipeline(det_engine, chunk_size=0)
        with pytest.raises(ExperimentError):
            PerturbationPipeline(det_engine, workers=0)
        with pytest.raises(ExperimentError):
            PerturbationPipeline(object())

    def test_schema_mismatch_rejected(self, det_engine, tiny_dataset):
        pipeline = PerturbationPipeline(det_engine)
        with pytest.raises(DataError):
            pipeline.perturb(tiny_dataset, seed=0)


# ----------------------------------------------------------------------
# streaming reconstruction + mining
# ----------------------------------------------------------------------
class TestStreamingFrontEnd:
    def test_estimator_matches_dataset_backed(self, census, det_engine):
        perturbed = det_engine.perturb(census, seed=9)
        acc = JointCountAccumulator(census.schema).update(perturbed)
        streaming = AccumulatedSupportEstimator(acc, GAMMA)
        direct = GammaDiagonalSupportEstimator(perturbed, GAMMA)
        items = all_items(census.schema)
        assert np.allclose(
            streaming.supports(items), direct.supports(items), atol=1e-12
        )

    def test_estimator_rejects_empty_stream(self, census):
        acc = JointCountAccumulator(census.schema)
        with pytest.raises(MiningError):
            AccumulatedSupportEstimator(acc, GAMMA).supports(
                all_items(census.schema)
            )

    def test_reconstruct_stream_matches_direct_solver(self, census):
        """The front-end is exactly Eq. 8 applied to the accumulated Y."""
        from repro.core.reconstruction import reconstruct_counts

        acc = JointCountAccumulator(census.schema)
        acc.update(
            GammaDiagonalPerturbation(census.schema, GAMMA).perturb(census, seed=1)
        )
        estimate = reconstruct_stream(acc, GAMMA)
        matrix = GammaDiagonalMatrix(census.schema.joint_size, GAMMA)
        assert np.allclose(estimate, reconstruct_counts(matrix, acc.counts))
        # The closed form preserves total mass and inverts exactly:
        assert estimate.sum() == pytest.approx(census.n_records)
        assert np.allclose(matrix.matvec(estimate), acc.counts)
        clipped = reconstruct_stream(acc, GAMMA, clip=True)
        assert (clipped >= 0).all()

    def test_reconstruct_stream_portfolio_keeps_the_closed_form(self, census):
        """The fallback solves with the O(n) operator, never densifying."""
        acc = JointCountAccumulator(census.schema)
        acc.update(
            GammaDiagonalPerturbation(census.schema, GAMMA).perturb(census, seed=1)
        )
        np.testing.assert_array_equal(
            reconstruct_stream(acc, GAMMA, method="portfolio"),
            reconstruct_stream(acc, GAMMA, method="solve"),
        )

    def test_reconstruct_stream_em_is_nonnegative(self, census):
        acc = JointCountAccumulator(census.schema)
        acc.update(
            GammaDiagonalPerturbation(census.schema, GAMMA).perturb(census, seed=1)
        )
        estimate = reconstruct_stream(acc, GAMMA, method="em")
        assert (estimate >= 0).all()
        assert estimate.sum() == pytest.approx(census.n_records)

    def test_mine_stream_equals_one_shot_mining(self, census, det_engine):
        """workers=1 streaming preserves the one-shot mining result."""
        one_shot = api.mine(census, 0.02, params={"gamma": GAMMA}, seed=4)
        streamed = mine_stream(
            census.iter_chunks(1_500),
            census.schema,
            GAMMA,
            0.02,
            chunk_size=1_500,
            seed=4,
        )
        assert one_shot.by_length.keys() == streamed.by_length.keys()
        for length, level in one_shot.by_length.items():
            assert level.keys() == streamed.by_length[length].keys()
            for itemset, support in level.items():
                assert streamed.by_length[length][itemset] == pytest.approx(support)

    def test_mine_stream_multiworker_runs(self, census):
        result = mine_stream(
            census, census.schema, GAMMA, 0.05, chunk_size=2_048, workers=2, seed=4
        )
        assert 1 in result.by_length

    def test_mine_stream_rejects_a_mismatched_gamma(self):
        """The stream inverts with ``gamma``, so the engine must perturb
        with that gamma; an engine without one cannot be checked."""
        data = generate_census(20_000, seed=1)
        engine = GammaDiagonalPerturbation(data.schema, 5.0)
        with pytest.raises(ExperimentError, match="gamma"):
            mine_stream(data, data.schema, GAMMA, 0.02, engine=engine, seed=3)
        dense = GammaDiagonalMatrix(data.schema.joint_size, GAMMA).to_dense()
        no_gamma = MatrixPerturbation(data.schema, dense)
        with pytest.raises(ExperimentError, match="gamma"):
            mine_stream(data, data.schema, GAMMA, 0.02, engine=no_gamma, seed=3)
        matched = GammaDiagonalPerturbation(data.schema, GAMMA)
        expected = mine_stream(data, data.schema, GAMMA, 0.02, seed=3)
        got = mine_stream(data, data.schema, GAMMA, 0.02, engine=matched, seed=3)
        assert got == expected

    def test_mine_stream_rejects_an_engine_on_another_schema(
        self, census, tiny_dataset
    ):
        engine = GammaDiagonalPerturbation(tiny_dataset.schema, GAMMA)
        with pytest.raises(ExperimentError, match="schema"):
            mine_stream(census, census.schema, GAMMA, 0.02, engine=engine, seed=3)


# ----------------------------------------------------------------------
# miner / experiment integration
# ----------------------------------------------------------------------
class TestMinerIntegration:
    def test_chunked_miner_matches_direct_miner(self, census):
        direct = api.mine(census, 0.02, params={"gamma": GAMMA}, seed=8)
        chunked = api.Session(
            census.schema, params={"gamma": GAMMA}, seed=8, chunk_size=1_000
        ).mine(census, 0.02)
        assert direct.by_length.keys() == chunked.by_length.keys()
        for length, level in direct.by_length.items():
            assert level.keys() == chunked.by_length[length].keys()

    def test_run_mechanism_with_pipeline_config(self, census):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_mechanism

        config = ExperimentConfig(workers=2, chunk_size=2_048)
        run = run_mechanism(census, "DET-GD", config)
        assert run.mechanism == "DET-GD"
        assert run.errors is not None

    def test_config_validates_pipeline_knobs(self):
        from repro.exceptions import ExperimentError
        from repro.experiments.config import ExperimentConfig

        with pytest.raises(ExperimentError):
            ExperimentConfig(workers=0)
        with pytest.raises(ExperimentError):
            ExperimentConfig(chunk_size=0)


# ----------------------------------------------------------------------
# memory-mapped sources (.frd)
# ----------------------------------------------------------------------
class TestMemmapSource:
    @pytest.fixture(scope="class")
    def frd_path(self, census, tmp_path_factory):
        from repro.data.io import save_frd

        path = tmp_path_factory.mktemp("pipeline-frd") / "census.frd"
        save_frd(census, path)
        return path

    def test_memmap_counts_equal_in_ram(self, census, det_engine, frd_path):
        """With two workers an ``.frd`` travels as row spans and an
        in-RAM dataset as pickled chunks; every output is identical."""
        from repro.data.io import open_frd

        for workers in (1, 2):
            pipeline = PerturbationPipeline(
                det_engine, chunk_size=2_048, workers=workers
            )
            in_ram = pipeline.accumulate(census, seed=5)
            mapped = pipeline.accumulate(open_frd(frd_path), seed=5)
            assert np.array_equal(in_ram.counts, mapped.counts)
        assert np.array_equal(
            mapped.counts,
            perturb_spawned(det_engine, census, 5, 2_048).joint_counts(),
        )
        assert np.array_equal(
            np.concatenate(list(pipeline.perturb_stream(open_frd(frd_path), seed=5))),
            pipeline.perturb(census, seed=5).records,
        )
        assert np.array_equal(
            pipeline.accumulate_bitmaps(open_frd(frd_path), seed=5).bitmaps.words,
            pipeline.accumulate_bitmaps(census, seed=5).bitmaps.words,
        )

    def test_spans_reject_another_schema(self, det_engine, tiny_dataset, tmp_path):
        from repro.data.io import open_frd, save_frd

        path = tmp_path / "tiny.frd"
        save_frd(tiny_dataset, path)
        pipeline = PerturbationPipeline(det_engine, chunk_size=2, workers=2)
        with pytest.raises(DataError):
            pipeline.accumulate(open_frd(path), seed=5)

    def test_corrupt_cells_fail_closed_while_streaming(
        self, census, det_engine, frd_path, tmp_path
    ):
        """A cell byte past its domain raises ``DataError`` on every
        streaming path, in process and in pool workers, as it does when
        the file is materialised."""
        from repro.data.io import open_frd

        path = tmp_path / "corrupt.frd"
        path.write_bytes(frd_path.read_bytes())
        age = open_frd(path).column("age")
        with path.open("r+b") as handle:
            handle.seek(age.offset + 5_000)
            handle.write(bytes([200]))
        source = open_frd(path)
        with pytest.raises(DataError):
            source.to_dataset()
        for workers in (1, 2):
            with pytest.raises(DataError, match="'age'"):
                mine_stream(
                    source, census.schema, GAMMA, 0.02, chunk_size=2_048,
                    workers=workers, seed=8,
                )
            pipeline = PerturbationPipeline(
                det_engine, chunk_size=2_048, workers=workers
            )
            with pytest.raises(DataError, match="'age'"):
                list(pipeline.perturb_stream(source, seed=5))

    def test_memmap_sequential_equals_one_shot(self, census, det_engine, frd_path):
        from repro.data.io import open_frd

        counts = (
            PerturbationPipeline(det_engine, chunk_size=2_048)
            .accumulate(open_frd(frd_path), seed=5)
            .counts
        )
        assert np.array_equal(
            counts, det_engine.perturb(census, seed=5).joint_counts()
        )

    def test_mine_stream_over_memmap(self, census, frd_path):
        from repro.data.io import open_frd

        direct = mine_stream(
            census, census.schema, GAMMA, 0.02, chunk_size=2_048, seed=8
        )
        mapped = mine_stream(
            open_frd(frd_path), census.schema, GAMMA, 0.02, chunk_size=2_048, seed=8
        )
        assert direct.by_length.keys() == mapped.by_length.keys()
        for length, level in direct.by_length.items():
            assert level == mapped.by_length[length]


# ----------------------------------------------------------------------
# out-of-core: an .frd streams under a RAM budget its records exceed
# ----------------------------------------------------------------------
_BUDGET_CHILD = r"""
import hashlib
import resource
import sys

import numpy as np

from repro.core.engine import GammaDiagonalPerturbation
from repro.data.io import open_frd
from repro.pipeline import PerturbationPipeline

path, chunk, budget, gamma, seed = sys.argv[1:]
source = open_frd(path)

# Everything allocated from here on counts against the budget.
vm_data = 0
for line in open("/proc/self/status"):
    if line.startswith("VmData:"):
        vm_data = int(line.split()[1]) * 1024
limit = vm_data + int(budget)
resource.setrlimit(resource.RLIMIT_DATA, (limit, limit))

try:
    dense = np.empty((source.n_records, source.schema.n_attributes), np.int64)
    dense[:] = 1
    print("materialise:ok")
except MemoryError:
    print("materialise:MemoryError")

engine = GammaDiagonalPerturbation(source.schema, float(gamma))
pipeline = PerturbationPipeline(engine, chunk_size=int(chunk))
counts = pipeline.accumulate(source, seed=int(seed)).counts
print(f"n:{counts.sum()}")
print(f"sha:{hashlib.sha256(np.ascontiguousarray(counts).tobytes()).hexdigest()}")
"""


@pytest.mark.skipif(
    sys.platform != "linux", reason="RLIMIT_DATA semantics are Linux-specific"
)
def test_frd_accumulates_under_a_budget_its_int64_records_exceed(tmp_path):
    """A child process whose anonymous-memory budget (``RLIMIT_DATA``,
    32 MiB) cannot hold the 1e6 records as int64 (48 MB) still streams
    the memory-mapped ``.frd``: file-backed maps stay outside the limit.
    Its counts are bit-identical to the unconstrained in-RAM run."""
    from repro.data.census import census_mixture
    from repro.data.io import FrdWriter, open_frd

    n_records, chunk, budget, seed = 1_000_000, 131_072, 32 * 1024 * 1024, 7
    path = tmp_path / "census.frd"
    mixture = census_mixture()
    root = np.random.SeedSequence(77)
    with FrdWriter(mixture.schema, path) as writer:
        for start in range(0, n_records, chunk):
            rng = np.random.default_rng(root.spawn(1)[0])
            writer.write(mixture.sample(min(chunk, n_records - start), seed=rng))

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    argv = [path, chunk, budget, GAMMA, seed]
    child = subprocess.run(
        [sys.executable, "-c", _BUDGET_CHILD, *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    lines = dict(line.split(":", 1) for line in child.stdout.split())
    if lines["materialise"] == "ok":
        pytest.skip("RLIMIT_DATA is not enforced on this kernel/container")
    assert lines["materialise"] == "MemoryError"
    assert int(lines["n"]) == n_records

    source = open_frd(path)
    engine = GammaDiagonalPerturbation(source.schema, GAMMA)
    pipeline = PerturbationPipeline(engine, chunk_size=chunk)
    counts = pipeline.accumulate(source.to_dataset(), seed=seed).counts
    expected = hashlib.sha256(np.ascontiguousarray(counts).tobytes()).hexdigest()
    assert lines["sha"] == expected


# ----------------------------------------------------------------------
# stream fast-forward (skip_records)
# ----------------------------------------------------------------------
class TestSkipRecords:
    """Resuming a stream behind ``k`` records is invisible in the bits.

    The service relies on this after crash recovery: a restarted
    collection fast-forwards its perturbation stream past the spool's
    durable record count, and every later batch must come out exactly
    as it would have from the original uninterrupted stream.
    """

    @given(
        split=st.integers(min_value=0, max_value=300),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_any_skip_draw_split_is_bit_identical(self, split, seed):
        from repro.pipeline.batch import SequentialPerturbStream

        data = generate_census(300, seed=23)
        engine = GammaDiagonalPerturbation(data.schema, GAMMA)
        straight = SequentialPerturbStream(engine, seed=seed)
        full = straight.perturb_batch(data.records)
        resumed = SequentialPerturbStream(engine, seed=seed)
        resumed.skip_records(split)
        assert resumed.n_records == split
        tail = resumed.perturb_batch(data.records[split:])
        assert np.array_equal(tail, full[split:])
        assert resumed.n_records == straight.n_records == 300

    def test_skip_splits_compose(self):
        from repro.pipeline.batch import SequentialPerturbStream

        data = generate_census(120, seed=3)
        engine = GammaDiagonalPerturbation(data.schema, GAMMA)
        full = SequentialPerturbStream(engine, seed=5).perturb_batch(data.records)
        twice = SequentialPerturbStream(engine, seed=5)
        twice.skip_records(40)
        twice.skip_records(30)  # two skips == one skip of the sum
        assert np.array_equal(
            twice.perturb_batch(data.records[70:]), full[70:]
        )

    def test_negative_skip_rejected(self):
        from repro.pipeline.batch import SequentialPerturbStream

        engine = GammaDiagonalPerturbation(generate_census(10, seed=1).schema, GAMMA)
        with pytest.raises(ExperimentError):
            SequentialPerturbStream(engine, seed=1).skip_records(-1)

    def test_engine_without_uniform_width_rejected(self):
        from repro.pipeline.batch import SequentialPerturbStream

        class Opaque:
            schema = generate_census(10, seed=1).schema

            def perturb_chunk(self, records, uniforms):
                return records

        with pytest.raises(ExperimentError):
            SequentialPerturbStream(Opaque(), seed=1).skip_records(5)
