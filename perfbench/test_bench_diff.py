"""Properties of the run-comparison tool (``bench_diff.py``).

Run with ``python3 -m pytest perfbench/test_bench_diff.py``.
"""

from hypothesis import given, settings, strategies as st

from bench_diff import BUCKETS, compare

WORKLOAD = st.sampled_from(["paper", "stream", "service"])
METRIC = st.sampled_from(["setup_s", "wall_s", "cpu_s", "peak_rss_mb", "max_rate_rps"])
RUNS = st.lists(st.floats(0.01, 100.0, allow_nan=False), min_size=1, max_size=12)
RULES = st.dictionaries(
    METRIC, st.tuples(st.floats(0.01, 0.25), st.sampled_from(["lower", "higher"]))
)


def run_sets():
    return st.dictionaries(st.tuples(WORKLOAD, METRIC), RUNS, max_size=10)


@settings(max_examples=200, deadline=None)
@given(run_sets(), RULES, st.floats(0.01, 0.25))
def test_comparing_a_set_with_itself_changes_nothing(runs, rules, default):
    rows = compare(runs, runs, rules, default)
    assert all(row["bucket"] in ("unchanged", "unresolved") for row in rows)


@settings(max_examples=200, deadline=None)
@given(run_sets(), run_sets(), RULES, st.floats(0.01, 0.25), st.floats(0.1, 0.99))
def test_tightening_a_bound_never_marks_fewer_regressed(base, change, rules,
                                                        default, factor):
    tighter = {name: (bound * factor, better) for name, (bound, better) in rules.items()}

    def regressed(rows):
        return {(r["workload"], r["metric"]) for r in rows if r["bucket"] == "regressed"}

    loose = regressed(compare(base, change, rules, default))
    tight = regressed(compare(base, change, tighter, default * factor))
    assert loose <= tight


@settings(max_examples=200, deadline=None)
@given(run_sets(), run_sets(), RULES, st.floats(0.01, 0.25))
def test_every_pair_lands_in_exactly_one_bucket(base, change, rules, default):
    rows = compare(base, change, rules, default)
    keys = [(row["workload"], row["metric"]) for row in rows]
    assert len(keys) == len(set(keys))
    assert set(keys) == set(base) & set(change)
    assert all(row["bucket"] in BUCKETS for row in rows)
