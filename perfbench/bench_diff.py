"""Compare two sets of benchmark runs, metric by metric.

Usage::

    python3 perfbench/bench_diff.py BASE.jsonl CHANGE.jsonl

Both files hold records appended by ``run.py --record``.  For each
(workload, metric) pair present in both sets, using each side's median
and quartiles, the pair lands in exactly one bucket:

``regressed``
    the change's median is worse than the base's by more than the
    metric's bound (``BENCHMARK.json``; :data:`DEFAULT_BOUND` for the
    reported-only metrics it does not list);
``improved``
    the change wins at least nine tenths of all (base, change) run
    pairs, ties counting for neither, and the medians differ by more
    than the base's quartile spread;
``unresolved``
    neither of the above, and one side's quartile spread, as a share of
    its median, is wider than the bound;
``unchanged``
    everything else.

Runs from different environments (see ``run.py``'s stamp) or of
different lengths are refused, and the differing stamp fields are
printed as the reason.  Exit code 1 when any pair regressed, 2 on
unusable input.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BUCKETS = ("improved", "unchanged", "regressed", "unresolved")
#: Share of all (base, change) pairs the change must win to improve.
WIN_SHARE = 0.9
BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: Bound for the reported-only metrics BENCHMARK.json does not list.
DEFAULT_BOUND = 0.25


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(median) if median else math.inf


def classify(base, change, bound: float, better: str) -> str:
    """The bucket of one (workload, metric) pair; see the module doc."""
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    worse = sign * (change_median - base_median)
    if worse > 0 and (base_median == 0 or worse / abs(base_median) > bound):
        return "regressed"
    wins = sum(1 for b in base for c in change if sign * (c - b) < 0)
    q1, _, q3 = quartiles(base)
    if wins >= WIN_SHARE * len(base) * len(change) and -worse > q3 - q1:
        return "improved"
    if max(spread(base), spread(change)) > bound:
        return "unresolved"
    return "unchanged"


def compare(base: dict, change: dict, rules: dict, default_bound: float) -> list[dict]:
    """Classify every pair present in both sets.

    ``base`` and ``change`` map ``(workload, metric)`` to run values;
    ``rules`` maps a metric to ``(bound, better)``, defaulting to
    ``(default_bound, "lower")``.
    """
    rows = []
    for key in sorted(set(base) & set(change)):
        bound, better = rules.get(key[1], (default_bound, "lower"))
        rows.append({
            "workload": key[0],
            "metric": key[1],
            "bucket": classify(base[key], change[key], bound, better),
            "base_median": statistics.median(base[key]),
            "change_median": statistics.median(change[key]),
            "base_spread": spread(base[key]),
            "change_spread": spread(change[key]),
            "bound": bound,
            "runs": (len(base[key]), len(change[key])),
        })
    return rows


def load(path) -> tuple[dict, dict, list[dict]]:
    """``(values, rules, stamps)`` of the untraced records in a JSONL file."""
    values: dict = defaultdict(list)
    rules = {}
    stamps = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["trace"]:
            continue
        stamps.append(dict(record["environment"], seconds=record["seconds"]))
        for name, value in record["metrics"].items():
            values[(record["workload"], name)].append(value)
        for name, extra in record.get("extras", {}).items():
            values[(record["workload"], name)].append(extra["value"])
            rules[name] = extra["better"]
    return dict(values), rules, stamps


def _differences(stamps: list[dict]) -> dict:
    keys = sorted({key for stamp in stamps for key in stamp})
    return {
        key: sorted({json.dumps(stamp.get(key), sort_keys=True) for stamp in stamps})
        for key in keys
        if len({json.dumps(stamp.get(key), sort_keys=True) for stamp in stamps}) > 1
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)

    base, base_better, base_stamps = load(args.base)
    change, change_better, change_stamps = load(args.change)
    if not base or not change:
        print("bench_diff: no untraced runs on one side", file=sys.stderr)
        return 2
    differences = _differences(base_stamps + change_stamps)
    if differences:
        print("bench_diff: refusing to compare runs from different "
              "environments: " + json.dumps(differences, sort_keys=True),
              file=sys.stderr)
        return 2

    spec = json.loads(BENCHMARK_JSON.read_text())
    rules = {
        name: (DEFAULT_BOUND, better)
        for name, better in {**base_better, **change_better}.items()
    }
    rules.update({
        entry["name"]: (entry["bound"], entry["better"])
        for entry in spec["end_to_end"]
    })
    rows = compare(base, change, rules, DEFAULT_BOUND)
    for key in sorted(set(base) ^ set(change)):
        print(f"only in one set: {key[0]} {key[1]}")
    print(f"{'workload':<8} {'metric':<24} {'bucket':<10} {'base':>12} "
          f"{'change':>12} {'delta':>8} {'spreads':>15} {'bound':>6}")
    for row in rows:
        base_median = row["base_median"]
        delta = (row["change_median"] / base_median - 1) if base_median else math.nan
        print(f"{row['workload']:<8} {row['metric']:<24} {row['bucket']:<10} "
              f"{base_median:>12.5g} {row['change_median']:>12.5g} "
              f"{delta:>+8.1%} {row['base_spread']:>7.1%}/{row['change_spread']:<7.1%}"
              f"{row['bound']:>6.2f}")
    counts = {bucket: sum(row["bucket"] == bucket for row in rows) for bucket in BUCKETS}
    print("summary: " + ", ".join(f"{n} {bucket}" for bucket, n in counts.items()))
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
