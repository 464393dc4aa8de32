"""Native-kernel benchmarks: counting backends and the fused samplers.

Two ablations on the paper's CENSUS workload (honouring
``$REPRO_SCALE``):

* **Counting-kernel ablation** -- ``loops`` (the per-subset
  ``bincount`` oracle) / ``bitmap`` (the NumPy kernels, forced through
  the selection predicate) / ``native`` (the kernel the predicate
  selects: compiled when built) on exactly the candidate batches
  Apriori issues.  ``test_native_counting_speedup`` asserts the
  tentpole claim: the compiled threaded AND+popcount kernel counts
  paper-scale CENSUS supports >= 3x faster than the NumPy bitmap
  kernel (gated on hosts with >= 4 CPUs, where the thread pool
  actually engages; elsewhere the ratio is reported but not asserted).
* **Fused-sampler ablation** -- ``perturb_chunk`` with the compiled
  draw+realise+encode kernel versus the pure-NumPy path, asserting
  bit-identical outputs inside the timed comparison.

Every timing lands in the ``--benchmark-json`` output that
``check_regression.py`` gates against
``benchmarks/baselines/BENCH_kernels.json``.
"""

import os
import time

import numpy as np
import pytest
from conftest import kernel_side, once, support_counter

import repro.core.engine as engine_module
from repro.core.engine import (
    GammaDiagonalPerturbation,
    RandomizedGammaDiagonalPerturbation,
)
from repro.experiments.config import dataset_scale
from repro.mining.apriori import generate_candidates
from repro.mining.counting import ExactSupportCounter
from repro.mining.itemsets import all_items
from repro.mining.kernels import native

MIN_SUPPORT = 0.02

GAMMA = 19.0

#: Required native-vs-bitmap speedup on paper-scale CENSUS counting
#: (>= 4 CPUs: the AND+popcount thread pool needs cores to win big).
REQUIRED_SPEEDUP = 3.0

#: Floor at reduced $REPRO_SCALE (CI smoke runs): shrunken batches stay
#: under the kernel's parallel threshold, so the gate there only proves
#: the compiled path is not a regression.
REQUIRED_SPEEDUP_SMOKE = 1.0

needs_native = pytest.mark.skipif(
    not native.available(), reason="compiled kernel extension not built"
)


def _apriori_batches(dataset, min_support=MIN_SUPPORT):
    """The candidate batches Apriori issues, level by level."""
    counter = ExactSupportCounter(dataset)
    batches = []
    candidates = all_items(dataset.schema)
    while candidates:
        batches.append(candidates)
        supports = counter.supports(candidates)
        frequent = [
            itemset
            for itemset, support in zip(candidates, supports)
            if support >= min_support
        ]
        candidates = generate_candidates(frequent)
    return batches


def _best_of(func, rounds=5):
    times, result = [], None
    for _ in range(rounds):
        start = time.perf_counter()
        result = func()
        times.append(time.perf_counter() - start)
    return min(times), result


@pytest.mark.parametrize("backend", ["loops", "bitmap", "native"])
def test_support_counting(benchmark, backend, census):
    """Warm counting cost of every Apriori candidate batch (CENSUS)."""
    batches = _apriori_batches(census)
    counter = support_counter(census, backend)
    with kernel_side(backend):
        counter.supports(batches[0][:1])  # pack outside the timer
        supports = benchmark.pedantic(
            lambda: [counter.supports(batch) for batch in batches],
            rounds=3,
            iterations=1,
        )
    assert len(supports) == len(batches)


@pytest.mark.parametrize("engine_name", ["det-gd", "ran-gd"])
def test_perturb_chunk(benchmark, engine_name, census):
    """One-chunk perturbation cost with whatever sampler is active."""
    engine = (
        GammaDiagonalPerturbation(census.schema, GAMMA)
        if engine_name == "det-gd"
        else RandomizedGammaDiagonalPerturbation(
            census.schema, GAMMA, relative_alpha=0.5
        )
    )
    out = once(
        benchmark,
        lambda: engine.perturb_chunk(census.records, np.random.default_rng(7)),
    )
    assert out.shape == census.records.shape


@needs_native
def test_native_counting_speedup(census, report):
    """The tentpole claim, measured directly (best of 5 each).

    Both kernels count the same warm candidate batches Apriori issues
    (packing outside the timer); the results are asserted bit-identical
    level by level before any timing claim is made.
    """
    batches = _apriori_batches(census)
    n_candidates = sum(len(batch) for batch in batches)
    times, supports = {}, {}
    for backend in ("loops", "bitmap", "native"):
        counter = support_counter(census, backend)
        with kernel_side(backend):
            counter.supports(batches[0][:1])  # pack outside the timer
            times[backend], supports[backend] = _best_of(
                lambda counter=counter: [counter.supports(batch) for batch in batches]
            )
    for backend in ("bitmap", "native"):
        for expected, got in zip(supports["loops"], supports[backend]):
            assert (expected == got).all()

    cpus = os.cpu_count() or 1
    speedup = times["bitmap"] / times["native"]
    rows = [
        f"{'backend':<9} {'seconds':>9} {'candidates/s':>14}",
        *(
            f"{backend:<9} {seconds:>9.4f} {n_candidates / seconds:>14,.0f}"
            for backend, seconds in times.items()
        ),
        f"native speedup over bitmap: {speedup:.2f}x "
        f"(cpus: {cpus}, {census.n_records} records, "
        f"{n_candidates} candidates)",
    ]
    report("native_counting_speedup", "\n".join(rows))

    if cpus < 4:
        pytest.skip(
            f"speedup gate needs >= 4 CPUs for the thread pool, have {cpus}"
        )
    required = (
        REQUIRED_SPEEDUP if dataset_scale() >= 1.0 else REQUIRED_SPEEDUP_SMOKE
    )
    assert speedup >= required, (
        f"native backend gave only {speedup:.2f}x over bitmap "
        f"(need >= {required}x at REPRO_SCALE={dataset_scale()})"
    )


@needs_native
def test_fused_sampling_speedup(census, report):
    """Fused draw+realise+encode vs the NumPy path, bit-identity inside.

    Reported (not gated): the fused kernel is serial by construction --
    it must consume the bit generator in stream order -- so its win is
    constant-factor, not core-count, and shared runners are too noisy
    to gate a ~2x ratio.
    """
    engines = {
        "det-gd": GammaDiagonalPerturbation(census.schema, GAMMA),
        "ran-gd": RandomizedGammaDiagonalPerturbation(
            census.schema, GAMMA, relative_alpha=0.5
        ),
    }
    rows = [f"{'engine':<8} {'native':>9} {'python':>9} {'speedup':>8}"]
    for name, engine in engines.items():

        def run():
            return engine.perturb_chunk(
                census.records, np.random.default_rng(7)
            )

        t_native, out_native = _best_of(run)
        saved = engine_module._native_sampler
        engine_module._native_sampler = lambda n: None
        try:
            t_python, out_python = _best_of(run)
        finally:
            engine_module._native_sampler = saved
        assert np.array_equal(out_native, out_python)
        rows.append(
            f"{name:<8} {t_native:>8.4f}s {t_python:>8.4f}s "
            f"{t_python / t_native:>7.2f}x"
        )
    report("fused_sampling_speedup", "\n".join(rows))
