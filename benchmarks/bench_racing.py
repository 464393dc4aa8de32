"""The reconstruction fallback's and multi-host sharding's acceptance claims.

* On a mixed bag of reconstruction systems -- well-conditioned,
  ill-conditioned (where EM creeps toward its iteration cap), and
  singular-but-consistent -- ``reconstruct_counts(method="portfolio")``
  (closed form, then least squares, under a residual check) must beat
  **always-EM** by at least 1.5x: the closed form dispatches the
  invertible systems in one factorisation and least squares rescues
  the singular ones, so no system pays EM's slow multiplicative
  updates.  Every estimate is bit-identical to ``method="solve"`` on
  the invertible systems and to ``method="lstsq"`` on the singular
  ones.
* Two claim-coordinated ``frapp all`` processes over one cold shared
  store must finish in **under 0.7x** the wall-clock of a single cold
  process (asserted on hosts with >= 4 CPUs, reported elsewhere), with
  **byte-identical stdout** -- sharding may only move work, never
  numbers.

Dataset sizes honour ``$REPRO_SCALE`` like every other benchmark.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.reconstruction import em_reconstruct, reconstruct_counts

SRC = Path(__file__).resolve().parent.parent / "src"

#: EM iteration cap for the always-EM baseline (``em_reconstruct``'s
#: default, what ``method="em"`` runs).
EM_ITERATIONS = 500


def ill_conditioned_mix(n: int = 96, per_kind: int = 8):
    """``(matrix, observed)`` systems of three deliberately mixed kinds."""
    rng = np.random.default_rng(20050405)
    systems = []
    for index in range(per_kind):
        # Well-conditioned: diagonally dominant, closed solves it.
        matrix = rng.uniform(0.0, 1.0, size=(n, n)) + np.eye(n) * n
        matrix /= matrix.sum(axis=0)
        systems.append((matrix, matrix @ rng.uniform(10.0, 100.0, size=n)))
        # Ill-conditioned: heavy uniform mixing; EM's residual creeps
        # by well under 1% per iteration, so always-EM burns its full
        # iteration budget here.
        eps = 0.02 + 0.001 * index
        mixing = np.full((n, n), (1.0 - eps) / n) + eps * np.eye(n)
        systems.append((mixing, mixing @ rng.uniform(10.0, 100.0, size=n)))
        # Singular but consistent: the closed form fails, lstsq answers
        # exactly.
        rank1 = np.outer(np.full(n, 1.0 / n), np.ones(n))
        systems.append((rank1, rank1 @ rng.uniform(10.0, 100.0, size=n)))
    return systems


def solve_all_portfolio(systems) -> list:
    return [
        reconstruct_counts(matrix, observed, method="portfolio")
        for matrix, observed in systems
    ]


def solve_all_em(systems) -> int:
    solved = 0
    for matrix, observed in systems:
        em_reconstruct(matrix, observed, n_iterations=EM_ITERATIONS)
        solved += 1
    return solved


def test_portfolio_mixed_systems(benchmark):
    """pytest-benchmark timing: the fallback over the mixed bag."""
    systems = ill_conditioned_mix()
    estimates = benchmark.pedantic(
        lambda: solve_all_portfolio(systems), rounds=3, iterations=1
    )
    assert len(estimates) == len(systems)


def test_always_em_mixed_systems(benchmark):
    """pytest-benchmark timing: plain EM over the same mixed bag."""
    systems = ill_conditioned_mix()
    solved = benchmark.pedantic(
        lambda: solve_all_em(systems), rounds=1, iterations=1
    )
    assert solved == len(systems)


def test_portfolio_beats_always_em(report):
    """The headline gate: the fallback >= 1.5x always-EM on the mix."""
    systems = ill_conditioned_mix()
    t0 = time.perf_counter()
    estimates = solve_all_portfolio(systems)
    t_portfolio = time.perf_counter() - t0
    t0 = time.perf_counter()
    solve_all_em(systems)
    t_em = time.perf_counter() - t0

    speedup = t_em / t_portfolio
    report(
        "racing_portfolio_vs_em",
        f"{'solver':<12} {'seconds':>8}\n"
        f"{'portfolio':<12} {t_portfolio:>8.3f}\n"
        f"{'always-em':<12} {t_em:>8.3f}\n"
        f"speedup: {speedup:.1f}x over {len(systems)} systems",
    )
    # The fallback adds no arithmetic of its own: each estimate is the
    # closed form's where it answers, least squares' on the singular
    # systems -- one factorisation where always-EM pays hundreds of
    # matvecs.
    for (matrix, observed), estimate in zip(systems, estimates):
        singular = np.linalg.matrix_rank(matrix) < matrix.shape[0]
        reference = reconstruct_counts(
            matrix, observed, method="lstsq" if singular else "solve"
        )
        np.testing.assert_array_equal(estimate, reference)
    assert speedup >= 1.5, (
        f"portfolio ({t_portfolio:.3f}s) must be >= 1.5x faster than "
        f"always-EM ({t_em:.3f}s); got {speedup:.2f}x"
    )


def _frapp_subprocess(argv, env) -> str:
    """Run the CLI in a child process; returns its stdout."""
    env = dict(env)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return completed.stdout


def test_two_claimed_hosts_beat_one_cold(tmp_path, report):
    """Two ``frapp all --claim-dir`` peers vs one cold host."""
    t0 = time.perf_counter()
    single = _frapp_subprocess(
        ["all", "--cache-dir", str(tmp_path / "one")], os.environ
    )
    t_single = time.perf_counter() - t0

    shared = ["all", "--cache-dir", str(tmp_path / "two"),
              "--claim-dir", str(tmp_path / "claims")]
    outputs = {}

    def host(name):
        outputs[name] = _frapp_subprocess(shared, os.environ)

    threads = [threading.Thread(target=host, args=(n,)) for n in ("h1", "h2")]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    t_pair = time.perf_counter() - t0

    # Sharding may only move work between hosts, never change numbers:
    # every host prints the complete grid, byte-identical to 1-host.
    assert outputs["h1"] == single
    assert outputs["h2"] == single

    cpus = os.cpu_count() or 1
    report(
        "racing_two_host_frapp_all",
        f"{'hosts':<7} {'seconds':>8}\n"
        f"{'1':<7} {t_single:>8.3f}\n"
        f"{'2':<7} {t_pair:>8.3f}\n"
        f"ratio: {t_pair / t_single:.2f} (cpus: {cpus})",
    )
    # Splitting the grid needs cores to win; assert only where it can.
    if cpus >= 4:
        assert t_pair < 0.7 * t_single, (
            f"two claim-coordinated hosts ({t_pair:.2f}s) should finish in "
            f"< 0.7x of one cold host ({t_single:.2f}s) on a {cpus}-core host"
        )
