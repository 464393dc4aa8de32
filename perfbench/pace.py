"""The machine's pace: a fixed reference kernel timed next to the work.

On a shared host the speed of a core drifts by tens of percent over
tens of seconds (other tenants' load), and CPU time drifts with it, so
two runs of identical code can differ by a third.  Each measured
repetition is therefore paired with a run of this kernel, which never
changes, and its time is rescaled to the pace at which the kernel takes
:data:`REFERENCE_S`::

    paced = measured * REFERENCE_S / kernel_seconds()

The kernel mixes the operations the workloads spend their time in:
NumPy bin counting and random draws over a few MiB, and interpreted
dictionary updates.
"""

from __future__ import annotations

import time

import numpy as np

#: The kernel's typical time on the 2-core host the bounds were set on.
REFERENCE_S = 0.040

#: Kept small (under 2 MiB live) so the kernel never sets a process's
#: peak resident memory.
_VALUES = np.random.default_rng(0).integers(0, 2000, 200_000, dtype=np.int32)


def _kernel() -> None:
    rng = np.random.default_rng(1)
    for _ in range(20):
        draws = rng.random(200_000)  # fresh arrays, as the work allocates
        np.bincount(_VALUES, weights=draws, minlength=2000)
    # About as long again in the interpreter: the paper workload is
    # mostly Python-level estimator and candidate code, and a NumPy-only
    # kernel tracked its drift poorly.
    table: dict[int, int] = {}
    for i in range(150_000):
        table[i & 1023] = table.get(i & 1023, 0) + (i & 7)


def kernel_seconds(repeats: int = 3) -> float:
    """Median of ``repeats`` timed kernel runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


def paced(seconds: float, kernel_s: float) -> float:
    """``seconds`` rescaled to the reference pace."""
    return seconds * REFERENCE_S / kernel_s
