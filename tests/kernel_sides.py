"""The counting sides the kernel tests compare, and how to select each.

The kernel layer picks its counting kernel itself: the compiled kernels
when :func:`repro.mining.kernels.native.available` is true, the NumPy
bitmap kernels otherwise.  Tests pin every side against the same
reference:

* ``"loops"`` -- the per-subset ``bincount`` oracle,
  :func:`repro.mining.counting.supports_from_subset_counts` over
  ``dataset.subset_counts``;
* ``"bitmap"`` -- the NumPy kernels, forced by switching the selection
  predicate off (what ``REPRO_FORCE_PYTHON=1`` does for a process);
* ``"native"`` -- whatever the predicate selects: the compiled kernels
  when the extension is built, so both kernel sides run in one process.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.mining.counting import supports_from_subset_counts
from repro.mining.kernels import native

KERNEL_SIDES = ("loops", "bitmap", "native")

#: The sides that run a kernel (everything but the oracle).
KERNELS = ("bitmap", "native")


@contextlib.contextmanager
def numpy_kernels():
    """Switch the selection predicate off: every kernel runs on NumPy."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "_lib", None)
        yield


def kernel_side(side: str):
    """Context in which the kernel layer counts on ``side``."""
    return numpy_kernels() if side == "bitmap" else contextlib.nullcontext()


def oracle_supports(dataset, itemsets):
    """Exact supports by per-subset ``bincount`` (the ``"loops"`` side)."""
    return supports_from_subset_counts(
        dataset.schema, dataset.n_records, dataset.subset_counts, list(itemsets)
    )


class OracleCounter:
    """The ``bincount`` oracle as an Apriori ``SupportSource``."""

    def __init__(self, dataset):
        self.dataset = dataset

    def supports(self, itemsets):
        """Exact fractional supports of ``itemsets``."""
        return oracle_supports(self.dataset, itemsets)
