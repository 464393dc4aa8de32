"""Shared fixtures for the benchmark harness.

Every paper table/figure has a benchmark that (a) times the
regeneration via pytest-benchmark and (b) prints the regenerated
series next to the paper's values (run with ``-s`` to see them).

Result files are opt-in: set ``REPRO_KEEP_RESULTS=1`` to persist the
printed blocks under ``RESULTS_DIR`` (``benchmarks/results/`` by
default, overridable with ``$REPRO_RESULTS_DIR``; the directory is
gitignored -- nothing under it should ever be committed).

Dataset sizes default to the paper's (50k CENSUS / 100k HEALTH); set
``REPRO_SCALE=0.1`` for a quick smoke pass.

Peak RSS
--------
Every pytest-benchmark test additionally records ``peak_rss_bytes`` in
its ``extra_info`` (and hence in the ``--benchmark-json`` output, which
``check_regression.py`` gates against committed baselines).  On Linux
the kernel's per-process high-water mark (``VmHWM``) is *reset* before
each benchmark via ``/proc/self/clear_refs``, so the number is that
benchmark's own peak; where the reset is unavailable the monotone
``ru_maxrss`` is recorded instead (still regression-detectable, just
cumulative).
"""

from __future__ import annotations

import contextlib
import os
import resource
from pathlib import Path

import pytest

from repro.data.census import CENSUS_N_RECORDS, generate_census
from repro.data.health import HEALTH_N_RECORDS, generate_health
from repro.experiments.config import dataset_scale
from repro.mining.counting import ExactSupportCounter, supports_from_subset_counts
from repro.mining.kernels import native

RESULTS_DIR = Path(
    os.environ.get("REPRO_RESULTS_DIR", Path(__file__).parent / "results")
)

_CLEAR_REFS = Path("/proc/self/clear_refs")
_STATUS = Path("/proc/self/status")


def reset_peak_rss() -> bool:
    """Reset the kernel's peak-RSS counter for this process (Linux).

    Returns ``True`` when the reset took effect; on other platforms (or
    locked-down containers) the counter stays monotone and the caller
    falls back to cumulative readings.
    """
    try:
        _CLEAR_REFS.write_text("5")
        return True
    except OSError:
        return False


def peak_rss_bytes() -> int:
    """Current peak resident-set size of this process, in bytes."""
    try:
        for line in _STATUS.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    except OSError:
        pass
    # ru_maxrss is kilobytes on Linux (bytes on macOS, which we accept
    # as an over-estimate there -- benchmarks are gated on Linux CI).
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


@pytest.fixture(autouse=True)
def _record_peak_rss(request):
    """Attach ``peak_rss_bytes`` to every pytest-benchmark test."""
    if "benchmark" not in request.fixturenames:
        yield
        return
    benchmark = request.getfixturevalue("benchmark")
    reset_peak_rss()
    yield
    benchmark.extra_info.setdefault("peak_rss_bytes", peak_rss_bytes())


def keep_results() -> bool:
    """Whether result files should be written (``REPRO_KEEP_RESULTS=1``)."""
    return os.environ.get("REPRO_KEEP_RESULTS", "") == "1"


@pytest.fixture(scope="session")
def census():
    """The paper-scale CENSUS dataset (honours $REPRO_SCALE)."""
    return generate_census(int(CENSUS_N_RECORDS * dataset_scale()))


@pytest.fixture(scope="session")
def health():
    """The paper-scale HEALTH dataset (honours $REPRO_SCALE)."""
    return generate_health(int(HEALTH_N_RECORDS * dataset_scale()))


@pytest.fixture(scope="session")
def report():
    """Print a result block; persist it only when opted in.

    Writing is gated on ``REPRO_KEEP_RESULTS=1`` so benchmark runs do
    not scatter ad-hoc artifacts -- CI sets the flag and uploads
    ``RESULTS_DIR`` wholesale.
    """

    def emit(name: str, text: str) -> None:
        print(f"\n=== {name} ===\n{text}")
        if keep_results():
            RESULTS_DIR.mkdir(parents=True, exist_ok=True)
            (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return emit


def once(benchmark, func):
    """Run an expensive experiment exactly once under the timer."""
    return benchmark.pedantic(func, rounds=1, iterations=1)


class LoopCounter:
    """The per-subset ``bincount`` supports the counting ablations time
    as their ``loops`` side (the kernels' test oracle)."""

    def __init__(self, dataset):
        self.dataset = dataset

    def supports(self, itemsets):
        """Exact fractional supports of ``itemsets``."""
        return supports_from_subset_counts(
            self.dataset.schema,
            self.dataset.n_records,
            self.dataset.subset_counts,
            list(itemsets),
        )


@contextlib.contextmanager
def kernel_side(side: str):
    """Count on one side: ``bitmap`` forces the NumPy kernels through
    the kernel layer's selection predicate; ``loops`` and ``native``
    leave it alone (``native`` is the compiled kernel when built)."""
    saved = native._lib
    if side == "bitmap":
        native._lib = None
    try:
        yield
    finally:
        native._lib = saved


def support_counter(dataset, side: str):
    """A support source counting on ``side`` (see :func:`kernel_side`)."""
    return LoopCounter(dataset) if side == "loops" else ExactSupportCounter(dataset)
