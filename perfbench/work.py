"""Measured work of the ``paper`` and ``stream`` workloads.

Each invocation is one fresh interpreter, so imports and peak memory
are those of a user's process.  ``run.py`` starts these; the last
stdout line is one JSON object.

Usage::

    python3 perfbench/work.py paper --cache-dir DIR [--trace-out FILE]
    python3 perfbench/work.py stream-setup --frd FILE --seed N
    python3 perfbench/work.py stream --frd FILE --seed N --seconds S \
        [--traced-seconds S --trace-out FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import time
from pathlib import Path

from spans import Tracer, install, layer_metrics

# ``pace`` imports NumPy, so each task imports it only after timing the
# program's own imports, which a user pays in full.

#: The stream workload's database: CENSUS-shaped, 1e7 records.
STREAM_RECORDS = 10_000_000
STREAM_BLOCK = 1_000_000
GAMMA = 19.0
MIN_SUPPORT = 0.02


def peak_rss_mb() -> float:
    """VmHWM of this process, in MiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    """User+sys CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def itemset_digest(result) -> str:
    """SHA-256 over the frequent itemsets of a mining result, in order."""
    rows = [
        [list(item) for item in itemset.items]
        for _, level in sorted(result.by_length.items())
        for itemset in sorted(level)
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def run_paper(args) -> dict:
    """One cold ``frapp all`` into an empty result store."""
    start = time.perf_counter()
    from repro.experiments import cli

    import_s = time.perf_counter() - start
    import pace

    tracer = None
    if args.trace_out:
        tracer = Tracer()
        install(tracer)
    stdout = io.StringIO()
    kernel_before = pace.kernel_seconds()
    cpu = cpu_seconds()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["all", "--cache-dir", args.cache_dir])
    wall_s = time.perf_counter() - start
    cpu_s = cpu_seconds() - cpu
    kernel_s = (kernel_before + pace.kernel_seconds()) / 2
    text = stdout.getvalue().encode()
    out = {
        "import_s": import_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "kernel_s": kernel_s,
        "peak_rss_mb": peak_rss_mb(),
        "exit_code": code,
        "stdout_sha256": hashlib.sha256(text).hexdigest(),
        "stdout_bytes": len(text),
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, wall_s)
        tracer.write_chrome(args.trace_out)
    return out


def run_stream_setup(args) -> dict:
    """Write the seeded 1e7-record CENSUS ``.frd`` the stream mines."""
    start = time.perf_counter()
    from repro.data import census_schema, generate_census
    from repro.data.io import FrdWriter

    import_s = time.perf_counter() - start
    start = time.perf_counter()
    with FrdWriter(census_schema(), args.frd) as writer:
        for block in range(STREAM_RECORDS // STREAM_BLOCK):
            seed = args.seed * 16 + block
            writer.write(generate_census(STREAM_BLOCK, seed=seed).records)
    return {"import_s": import_s, "write_s": time.perf_counter() - start}


def run_stream(args) -> dict:
    """Repeated ``mine_stream`` calls over the memory-mapped ``.frd``."""
    start = time.perf_counter()
    from repro.data import census_schema
    from repro.data.io import open_frd
    from repro.pipeline import mine_stream

    import_s = time.perf_counter() - start
    import pace

    schema = census_schema()
    source = open_frd(args.frd, schema)

    def timed_calls(seconds):
        walls, cpus, kernels, results = [], [], [], []
        deadline = time.perf_counter() + seconds
        while len(walls) < 3 or time.perf_counter() < deadline:
            kernels.append(pace.kernel_seconds(repeats=1))
            cpu = time.process_time()
            start = time.perf_counter()
            results.append(
                mine_stream(source, schema, GAMMA, MIN_SUPPORT, workers=1,
                            seed=args.seed)
            )
            walls.append(time.perf_counter() - start)
            cpus.append(time.process_time() - cpu)
        return walls, cpus, kernels, results

    walls, cpus, kernels, results = timed_calls(args.seconds)
    out = {
        "import_s": import_s,
        "walls": walls,
        "cpus": cpus,
        "kernels": kernels,
        "peak_rss_mb": peak_rss_mb(),
        "digests": sorted({itemset_digest(result) for result in results}),
    }
    if args.trace_out:
        tracer = Tracer()
        install(tracer)
        traced, _, traced_kernels, _ = timed_calls(args.traced_seconds)
        out["traced_walls"] = traced
        out["traced_kernels"] = traced_kernels
        # Per-call means: the traced layers' totals are divided by calls.
        out["layers"] = layer_metrics(
            tracer, statistics.fmean(traced), calls=len(traced)
        )
        tracer.write_chrome(args.trace_out)
    stream_checks(args, schema, source, out)
    return out


def stream_checks(args, schema, source, out: dict) -> None:
    """Outside the timed region: check one more ``mine_stream`` call.

    ``PerturbationPipeline.accumulate`` is wrapped for this call only,
    to keep the accumulator ``mine_stream`` builds.  Records in ``out``:

    * that accumulator's record count and count total;
    * the largest gap between each mined support and the one the
      mechanism registry's generic marginal-inversion estimator gives
      over the same counts, in place of ``mine_stream``'s Eq.-28 closed
      form, which checks the estimator.  Supports are compared, not
      itemset sets: the two agree to about 1e-14, and an itemset that
      close to the threshold may fall on either side of it;
    * :func:`exact_check` against the unperturbed file, which shares
      neither the sampler nor the accumulator with ``mine_stream``.
    """
    from repro.mechanisms import MechanismSpec, from_spec
    from repro.mechanisms.base import MarginalInversionEstimator
    from repro.pipeline import PerturbationPipeline, mine_stream

    accumulators = []
    accumulate = PerturbationPipeline.accumulate

    def keep(self, *call_args, **kwargs):
        accumulators.append(accumulate(self, *call_args, **kwargs))
        return accumulators[-1]

    PerturbationPipeline.accumulate = keep
    try:
        result = mine_stream(source, schema, GAMMA, MIN_SUPPORT, workers=1,
                             seed=args.seed)
    finally:
        PerturbationPipeline.accumulate = accumulate
    (accumulator,) = accumulators
    mechanism = from_spec(MechanismSpec("det-gd", {"gamma": GAMMA}), schema)
    estimator = MarginalInversionEstimator(
        mechanism, accumulator.subset_counts, accumulator.n_records
    )
    mined = result.frequent()
    reference = estimator.supports(list(mined))
    exact_max_z, exact_missed = exact_check(source, schema, mined)
    out.update(
        digests=sorted(set(out["digests"]) | {itemset_digest(result)}),
        accumulated_records=int(accumulator.n_records),
        accumulated_total=int(accumulator.counts.sum()),
        expected_records=STREAM_RECORDS,
        support_gap=max(
            (abs(support - ref) for support, ref in zip(mined.values(), reference)),
            default=0.0,
        ),
        exact_max_z=exact_max_z,
        exact_missed=exact_missed,
        z_tolerance=Z_TOLERANCE,
    )


#: A mined support may sit this many of its standard deviations from
#: the exact support before the stream check fails (a false alarm has
#: odds of about 2e-9 per itemset).
Z_TOLERANCE = 6.0


def exact_check(source, schema, mined: dict) -> tuple[float, int]:
    """Mined supports against the exact supports of the unperturbed file.

    The exact supports come from one plain ``bincount`` of the joint cell
    over the file's memory-mapped columns.  Returns the largest
    ``|mined - exact| / sigma`` over ``mined``, and the number of 1- and
    2-itemsets missing from ``mined`` although their exact support is
    :data:`Z_TOLERANCE` sigmas above the threshold.  Sigma is the
    standard deviation of a DET-GD support reconstructed from ``n``
    records: the binomial noise of the observed share, amplified by the
    inversion.
    """
    import itertools
    import math

    import numpy as np

    from repro.mining.itemsets import Itemset

    cards = schema.cardinalities
    n = source.n_records
    joint = np.zeros(math.prod(cards), dtype=np.int64)
    for start in range(0, n, STREAM_BLOCK):
        cell = 0
        for j, card in enumerate(cards):
            column = source.column(j)[start:start + STREAM_BLOCK]
            cell = cell * card + column.astype(np.int64)
        joint += np.bincount(cell, minlength=joint.size)
    joint = joint.reshape(cards) / n
    # DET-GD keeps a record's joint cell with probability gamma * x and
    # moves it to each other cell with probability x.
    x = 1.0 / (GAMMA + joint.size - 1)

    def exact_and_sigma(items):
        index = [slice(None)] * len(cards)
        for attribute, value in items:
            index[attribute] = value
        exact = float(joint[tuple(index)].sum())
        cells = joint.size // math.prod(cards[a] for a, _ in items)
        observed = (cells + (GAMMA - 1) * exact) * x
        sigma = math.sqrt(observed * (1 - observed) / n) / ((GAMMA - 1) * x)
        return exact, sigma

    max_z = 0.0
    for itemset, support in mined.items():
        exact, sigma = exact_and_sigma(itemset.items)
        max_z = max(max_z, abs(support - exact) / sigma)
    missed = 0
    for length in (1, 2):
        for attributes in itertools.combinations(range(len(cards)), length):
            for values in itertools.product(*(range(cards[a]) for a in attributes)):
                items = tuple(zip(attributes, values))
                exact, sigma = exact_and_sigma(items)
                missed += (exact - Z_TOLERANCE * sigma >= MIN_SUPPORT
                           and Itemset(items) not in mined)
    return max_z, missed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("task", choices=("paper", "stream-setup", "stream"))
    parser.add_argument("--cache-dir")
    parser.add_argument("--frd")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--traced-seconds", type=float, default=0.0)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    task = {"paper": run_paper, "stream-setup": run_stream_setup,
            "stream": run_stream}[args.task]
    print(json.dumps(task(args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
