"""Throughput and memory of the streaming pipeline (DESIGN.md, "Scaling").

Compares, on a ten-million-record CENSUS dataset, the DET-GD
perturb-and-count paths:

* ``one-shot``   -- ``engine.perturb(dataset).joint_counts()``: the
  whole-dataset API (materialises the perturbed dataset);
* ``stream w1``  -- ``PerturbationPipeline(workers=1).accumulate``:
  chunked joint-index streaming in-process (bit-identical counts to
  the one-shot path for the same seed);
* ``stream wN``  -- the same with a pool of N worker processes: every
  chunk of the in-RAM dataset is pickled through the pool pipe;
* ``memmap wN``  -- the same over an ``.frd`` memory map: workers
  re-open the file, tasks carry only ``(start, stop)`` spans and the
  parent never touches the records.

The dataset size honours ``$REPRO_SCALE`` (1e7 records at scale 1), so
CI can smoke-run the same benchmarks at ``REPRO_SCALE=0.1``.

Headline claim, asserted here and recorded in ``BENCH_pipeline.json``:

* ``test_compact_rss_reduction`` -- compact record storage cuts the
  pipeline's dataset-attributable peak RSS by >= 4x versus the same
  records as an ``astype(np.int64)`` array (measured in fresh child
  processes, gated on paper scale).
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.engine import GammaDiagonalPerturbation
from repro.data.census import generate_census
from repro.data.io import open_frd, save_frd
from repro.experiments.config import dataset_scale
from repro.pipeline import PerturbationPipeline

N_RECORDS = int(10_000_000 * dataset_scale())
CHUNK_SIZE = max(1, N_RECORDS // 32)
GAMMA = 19.0
SEED = 7


@pytest.fixture(scope="module")
def records():
    return generate_census(N_RECORDS, seed=77)


@pytest.fixture(scope="module")
def engine(records):
    return GammaDiagonalPerturbation(records.schema, GAMMA)


@pytest.fixture(scope="module")
def frd_path(records, tmp_path_factory):
    """The benchmark dataset persisted once as a compact ``.frd`` file."""
    path = tmp_path_factory.mktemp("frd") / "census.frd"
    save_frd(records, path)
    return path


def _one_shot_counts(engine, records):
    return engine.perturb(records, seed=SEED).joint_counts()


def _stream_counts(engine, source, workers):
    pipeline = PerturbationPipeline(engine, chunk_size=CHUNK_SIZE, workers=workers)
    return pipeline.accumulate(source, seed=SEED).counts


def test_one_shot_perturb_counts(benchmark, engine, records):
    counts = benchmark.pedantic(
        _one_shot_counts, args=(engine, records), rounds=3, iterations=1
    )
    assert counts.sum() == N_RECORDS


def test_stream_single_worker(benchmark, engine, records):
    counts = benchmark.pedantic(
        _stream_counts, args=(engine, records, 1), rounds=3, iterations=1
    )
    assert counts.sum() == N_RECORDS


def test_stream_two_workers(benchmark, engine, records):
    counts = benchmark.pedantic(
        _stream_counts, args=(engine, records, 2), rounds=3, iterations=1
    )
    assert counts.sum() == N_RECORDS


def test_stream_four_workers(benchmark, engine, records):
    counts = benchmark.pedantic(
        _stream_counts, args=(engine, records, 4), rounds=3, iterations=1
    )
    assert counts.sum() == N_RECORDS


def test_stream_four_workers_memmap(benchmark, engine, frd_path):
    source = open_frd(frd_path)
    counts = benchmark.pedantic(
        _stream_counts, args=(engine, source, 4), rounds=3, iterations=1
    )
    assert counts.sum() == N_RECORDS


def _best_of(func, *args, rounds=3):
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        result = func(*args)
        times.append(time.perf_counter() - start)
    return min(times), result


def test_multiworker_beats_one_shot(engine, records, report):
    """PR-1's acceptance claim, still measured directly (best of 3)."""
    t_one_shot, counts_one_shot = _best_of(_one_shot_counts, engine, records)
    rows = [f"{'path':<12} {'seconds':>8} {'records/s':>12}"]
    rows.append(
        f"{'one-shot':<12} {t_one_shot:>8.3f} {N_RECORDS / t_one_shot:>12,.0f}"
    )
    t_multi = None
    for workers in (1, 2, 4):
        t, counts = _best_of(_stream_counts, engine, records, workers)
        assert counts.sum() == N_RECORDS
        rows.append(
            f"{f'stream w{workers}':<12} {t:>8.3f} {N_RECORDS / t:>12,.0f}"
        )
        if workers == 2:
            t_multi = t
    report("pipeline_throughput", "\n".join(rows))

    # Single-worker streaming is bit-identical to the one-shot path.
    counts_stream, = (_stream_counts(engine, records, 1),)
    assert np.array_equal(counts_stream, counts_one_shot)
    # Multi-worker chunked throughput must exceed the one-shot path --
    # an at-scale claim: below full REPRO_SCALE the pool startup cost
    # dominates the (shrunken) workload, so only report there.
    if dataset_scale() >= 1.0:
        assert t_multi < t_one_shot, (
            f"multi-worker pipeline ({t_multi:.3f}s) should beat the one-shot "
            f"path ({t_one_shot:.3f}s) on {N_RECORDS:,} records"
        )


# ----------------------------------------------------------------------
# peak-RSS comparison (fresh child process per backend)
# ----------------------------------------------------------------------
_RSS_CHILD = r"""
import sys
import numpy as np
from repro.data.dataset import CategoricalDataset
from repro.data.io import open_frd
from repro.core.engine import GammaDiagonalPerturbation
from repro.pipeline import PerturbationPipeline

mode, path, chunk = sys.argv[1], sys.argv[2], int(sys.argv[3])
handle = open_frd(path)
schema, n_records = handle.schema, handle.n_records
if mode == "memmap":
    source = handle
elif mode == "baseline":
    source = None
    del handle
else:
    source = handle.to_dataset()
    if mode == "int64":
        # The seed library's blanket 8-byte cells, for comparison.
        source = CategoricalDataset(schema, source.records.astype(np.int64))
    # Unmap the file so construction-time page residency does not
    # pollute the measurement of the in-RAM backends.
    del handle

# Measure the *run* with the dataset resident: reset the kernel's
# peak-RSS counter now that construction transients are released.
try:
    open("/proc/self/clear_refs", "w").write("5")
except OSError:
    pass

if mode != "baseline":
    engine = GammaDiagonalPerturbation(schema, 19.0)
    pipeline = PerturbationPipeline(engine, chunk_size=chunk)
    counts = pipeline.accumulate(source, seed=7).counts
    assert counts.sum() == n_records

import resource
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
try:
    for line in open("/proc/self/status"):
        if line.startswith("VmHWM:"):
            peak = int(line.split()[1]) * 1024
except OSError:
    pass
print(peak)
"""


def _child_peak_rss(mode, frd_path):
    """Peak RSS (bytes) of one pipeline run in a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD, mode, str(frd_path), str(CHUNK_SIZE)],
        capture_output=True,
        text=True,
        check=True,
    )
    return int(result.stdout.strip())


def test_compact_rss_reduction(benchmark, frd_path, report):
    """The compact storage's memory claim: >= 4x lower dataset RSS.

    Each layout runs the same single-worker accumulate in a fresh
    child process; the interpreter + numpy baseline is measured
    separately and subtracted, so the ratio reflects what the *data
    plane* holds resident.  All readings land in
    ``BENCH_pipeline.json`` via ``extra_info``.
    """
    baseline = _child_peak_rss("baseline", frd_path)
    int64_peak = _child_peak_rss("int64", frd_path)
    memmap_peak = _child_peak_rss("memmap", frd_path)
    compact_peak = benchmark.pedantic(
        _child_peak_rss, args=("compact", frd_path), rounds=1, iterations=1
    )
    net_int64 = max(1, int64_peak - baseline)
    net_compact = max(1, compact_peak - baseline)
    net_memmap = max(1, memmap_peak - baseline)
    reduction = net_int64 / net_compact
    benchmark.extra_info.update(
        {
            "baseline_rss_bytes": baseline,
            "int64_rss_bytes": int64_peak,
            "compact_rss_bytes": compact_peak,
            "memmap_rss_bytes": memmap_peak,
            "compact_rss_reduction": round(reduction, 2),
        }
    )
    rows = [f"{'backend':<10} {'peak RSS':>14} {'net of baseline':>16}"]
    for name, peak, net in (
        ("int64", int64_peak, net_int64),
        ("compact", compact_peak, net_compact),
        ("memmap", memmap_peak, net_memmap),
    ):
        rows.append(f"{name:<10} {peak:>14,} {net:>16,}")
    rows.append(f"compact reduction over int64: {reduction:.1f}x")
    report("pipeline_rss", "\n".join(rows))
    # Below paper scale the fixed interpreter footprint drowns the
    # dataset, so the ratio is only gated at REPRO_SCALE >= 1.
    if dataset_scale() >= 1.0:
        assert reduction >= 4.0, (
            f"compact backend should cut dataset-attributable peak RSS >= 4x "
            f"(got {reduction:.1f}x: int64 {net_int64:,}B vs compact "
            f"{net_compact:,}B)"
        )
