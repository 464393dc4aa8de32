"""The repository benchmark: one command per workload run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper|stream|service --seed N \
        --seconds S --trace 0|1 [--record runs.jsonl]

With ``--trace 0`` the run is untraced and reports the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` a separate traced run
over the same inputs reports the per-layer metrics, the self-time table
and the tracing overhead.  Every output is checked; human-readable
lines come first and the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every check passed.  ``--record`` appends the full
result, stamped with the environment, for ``bench_diff.py``.

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
TRACE_ROOT = ROOT / ".perfbench-out"

#: sha256 of ``frapp all`` stdout (default knobs, empty store).
PAPER_STDOUT_SHA256 = (
    "f2d0bbd6dd52c3940ba82ef67587569b31f435662a00780d7227bc7d6c9262ba"
)
#: mine_stream's Eq.-28 closed form and the generic marginal inversion
#: compute one inverse in a different order; supports agree to this.
SUPPORT_TOLERANCE = 1e-9
CHILD_TIMEOUT_S = 150


class Result:
    """What one workload run measured and checked."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.metrics: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        #: Reported but not gated: name -> (value, unit, better).
        self.extras: dict[str, tuple[float, str, str]] = {}
        self.lines: list[str] = []
        #: Wall time the per-layer self times are shares of.
        self.traced_wall_s = 0.0

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def environment() -> dict:
    """The stamp every result carries; runs are compared only within one."""
    import numpy

    from repro.mining.kernels import native

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "REPRO_FORCE_PYTHON": os.environ.get("REPRO_FORCE_PYTHON"),
        "native": native.status(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_SCALE", None)  # paper scale
    return env


def work(*args) -> dict:
    """Run ``work.py`` in a fresh interpreter; its last stdout line."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "work.py"), *map(str, args)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"work.py {args[0]} failed:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def paced_median(seconds: list[float], kernels: list[float]) -> float:
    """Median of the repetitions' times, each rescaled by its pace kernel."""
    return statistics.median(
        pace.paced(value, kernel) for value, kernel in zip(seconds, kernels)
    )


def median_layers(runs: list[dict]) -> dict:
    return {
        name: statistics.median(run[name] for run in runs) for name in runs[0]
    }


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def paper(args, scratch: Path, result: Result) -> None:
    """Cold ``frapp all`` runs, each in a fresh process and empty store.

    The program's own knobs fix its inputs, so the seed is unused.
    """
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while not untraced or (args.trace and not traced) or time.perf_counter() < deadline:
        tracing = args.trace and len(traced) < len(untraced)
        store = scratch / f"store-{len(untraced) + len(traced)}"
        flags = ["--cache-dir", store]
        if tracing:
            flags += ["--trace-out", TRACE_ROOT / f"paper-{len(traced)}.json"]
        run = work("paper", *flags)
        (traced if tracing else untraced).append(run)
        result.check(
            run["exit_code"] == 0 and run["stdout_sha256"] == PAPER_STDOUT_SHA256,
            f"frapp all stdout sha256 {run['stdout_sha256']} != pinned",
        )
        shutil.rmtree(store, ignore_errors=True)
    kernels = [run["kernel_s"] for run in untraced]
    result.metrics = {
        "setup_s": statistics.median(run["import_s"] for run in untraced),
        "wall_s": paced_median([run["wall_s"] for run in untraced], kernels),
        "cpu_s": paced_median([run["cpu_s"] for run in untraced], kernels),
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in untraced),
    }
    raw_wall_s = statistics.median(run["wall_s"] for run in untraced)
    result.extras["raw_wall_s"] = (raw_wall_s, "s", "lower")
    result.extras["pace_kernel_ms"] = (1e3 * statistics.median(kernels), "ms", "lower")
    result.lines.append(
        "paper: raw wall_s per run " + " ".join(f"{r['wall_s']:.3f}" for r in untraced)
    )
    if traced:
        result.layers = median_layers([run["layers"] for run in traced])
        result.traced_wall_s = statistics.median(run["wall_s"] for run in traced)
        traced_wall_s = paced_median(
            [run["wall_s"] for run in traced], [run["kernel_s"] for run in traced]
        )
        result.layers["trace.overhead_frac"] = (
            traced_wall_s / result.metrics["wall_s"] - 1.0
        )


def stream(args, scratch: Path, result: Result) -> None:
    """Write the seeded ``.frd``, then time ``mine_stream`` calls over it."""
    frd = scratch / "census.frd"
    setup = work("stream-setup", "--frd", frd, "--seed", args.seed)
    flags = ["--frd", frd, "--seed", args.seed]
    if args.trace:
        flags += ["--seconds", args.seconds / 2, "--traced-seconds",
                  args.seconds / 2, "--trace-out", TRACE_ROOT / "stream.json"]
    else:
        flags += ["--seconds", args.seconds]
    run = work("stream", *flags)
    result.check(len(run["digests"]) == 1,
                 f"mine_stream calls of one seed mined {len(run['digests'])} "
                 f"different itemset sets")
    result.check(run["support_gap"] <= SUPPORT_TOLERANCE,
                 f"mine_stream supports differ from the reference by "
                 f"{run['support_gap']:.3g}")
    result.check(run["accumulated_records"] == run["expected_records"],
                 f"accumulated {run['accumulated_records']} records")
    result.check(run["accumulated_total"] == run["expected_records"],
                 f"accumulated counts sum to {run['accumulated_total']}")
    result.check(run["exact_max_z"] <= run["z_tolerance"],
                 f"a mined support lies {run['exact_max_z']:.1f} standard "
                 f"deviations from the file's exact support")
    result.check(run["exact_missed"] == 0,
                 f"{run['exact_missed']} clearly frequent 1- and 2-itemsets "
                 f"not mined")
    result.metrics = {
        "setup_s": setup["write_s"] + run["import_s"],
        "wall_s": paced_median(run["walls"], run["kernels"]),
        "cpu_s": paced_median(run["cpus"], run["kernels"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    raw_wall_s = statistics.median(run["walls"])
    result.extras["raw_wall_s"] = (raw_wall_s, "s", "lower")
    result.extras["pace_kernel_ms"] = (
        1e3 * statistics.median(run["kernels"]), "ms", "lower"
    )
    result.extras["records_per_s"] = (
        run["expected_records"] / raw_wall_s, "rec/s", "higher"
    )
    result.extras["frd_write_s"] = (setup["write_s"], "s", "lower")
    result.lines.append(f"stream: {len(run['walls'])} mine_stream calls, "
                        f"itemset digest {run['digests'][0][:16]}, "
                        f"largest gap to the exact supports "
                        f"{run['exact_max_z']:.2f} standard deviations")
    if args.trace:
        result.layers = run["layers"]
        result.traced_wall_s = statistics.median(run["traced_walls"])
        result.layers["trace.overhead_frac"] = (
            paced_median(run["traced_walls"], run["traced_kernels"])
            / result.metrics["wall_s"] - 1.0
        )


def service(args, scratch: Path, result: Result) -> None:
    """A real daemon under the open-loop ladder (see service_load.py)."""
    import service_load

    spans_out = TRACE_ROOT / "service.json" if args.trace else None
    out = service_load.run(ROOT, child_env(), scratch, args.seed, args.seconds,
                           spans_out)
    result.attempted += out["attempted"] - len(out["failures"])
    for failure in out["failures"]:
        result.check(False, failure)
    result.metrics = out["metrics"]
    result.extras.update(out["extras"])
    for rung in out["rungs"]:
        result.lines.append(
            "service rung {rate_rps:g} req/s: {samples} submits, p50 "
            "{p50_ms:.1f} ms, p95 {p95_ms:.1f} ms, generator late p95 "
            "{late_p95_ms:.2f} ms, backlog growth {backlog_growth:+.2f}, "
            "{verdict}".format(**rung, verdict="passes" if rung["passes"] else "fails")
        )
    if args.trace:
        summary = json.loads(Path(f"{spans_out}.layers.json").read_text())
        result.layers = summary["layers"]
        # The daemon's lifetime: most of it is idle waiting for requests.
        result.traced_wall_s = summary["wall_s"]
        result.layers["trace.overhead_frac"] = (
            result.layers["trace.spans"] * summary["span_cost_s"]
            / result.metrics["cpu_s"]
        )
        result.layers["service.replays"] = result.extras["replays"][0]
        rows = summary["samples"].get("service.batch_rows", [])
        waits = summary["samples"].get("service.queue_wait_ms", [])
        result.lines.append(
            f"service batches: rows p50 {service_load.percentile(rows, 0.5)} "
            f"p95 {service_load.percentile(rows, 0.95)} max {max(rows, default=0)}; "
            f"queue wait p50 {service_load.percentile(waits, 0.5):.1f} ms "
            f"p95 {service_load.percentile(waits, 0.95):.1f} ms"
        )


WORKLOADS = {"paper": paper, "stream": stream, "service": service}


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def stage_table(layers: dict, wall_s: float, units: dict) -> list[str]:
    """Self-time rows with their share of ``wall_s``, largest first."""
    rows = [
        (name, value) for name, value in layers.items()
        if units.get(name) == "s" and value > 0 and not name.startswith("trace.")
    ]
    rows.sort(key=lambda row: -row[1])
    rows.append(("other (untraced)", layers.get("trace.other_s", 0.0)))
    return [
        f"  {name:<34} {value:10.4f} s  {100 * value / wall_s:6.2f}% of wall_s"
        for name, value in rows
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full result to this JSONL file")
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    os.environ.pop("REPRO_SCALE", None)

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    WORK_ROOT.mkdir(exist_ok=True)
    TRACE_ROOT.mkdir(exist_ok=True)
    scratch = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir()
    result = Result()
    try:
        WORKLOADS[args.workload](args, scratch, result)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
    values = result.layers if args.trace else result.metrics
    metrics = {
        entry["name"]: {"value": values.get(entry["name"], 0.0), "unit": entry["unit"]}
        for entry in listed
    }
    for line in result.lines:
        print(line)
    for name, (value, unit, _) in sorted(result.extras.items()):
        print(f"extra {name} = {value:.6g} {unit}")
    if args.trace:
        print(f"{args.workload}: per-layer self time (traced run)")
        for line in stage_table(result.layers, result.traced_wall_s, units):
            print(line)
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    for failure in result.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    correct = not result.failures
    if args.record:
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "environment": env, "correct": correct,
            "attempted": result.attempted, "failed": len(result.failures),
            "metrics": result.metrics,
            "extras": {
                name: {"value": value, "unit": unit, "better": better}
                for name, (value, unit, better) in result.extras.items()
            },
            "layers": result.layers,
        }
        with open(args.record, "a", encoding="utf-8") as out:
            out.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
