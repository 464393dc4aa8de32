"""Shared execution-knob options for every ``frapp`` invocation.

The execution knobs -- ``--workers``, ``--chunk-size``, ``--dispatch``,
``--jobs``, ``--claim-dir`` and ``--lease`` -- live in
one parent parser (:func:`execution_options`) so every subcommand
(experiments, ``serve``, future tools) spells them identically and
help text cannot drift.  None of them changes a result.  The counting
kernel and the record storage are not knobs at all: the kernel layer
picks the kernel (:mod:`repro.mining.kernels`) and datasets are always
stored compact (:mod:`repro.data.backing`).
"""

from __future__ import annotations

import argparse

from repro.pipeline.executor import DISPATCH_MODES
from repro.store.claims import DEFAULT_CLAIM_LEASE


def execution_options() -> argparse.ArgumentParser:
    """The parent parser carrying the shared execution knobs.

    Use via ``argparse.ArgumentParser(parents=[execution_options()])``;
    ``add_help=False`` keeps the parent from stealing ``-h``.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("execution")
    group.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for DET-GD/RAN-GD perturbation (1 = in-process)",
    )
    group.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="records per pipeline chunk (unset = one-shot when workers=1)",
    )
    group.add_argument(
        "--dispatch",
        choices=list(DISPATCH_MODES),
        default="pickle",
        help="multi-worker chunk transport: per-chunk pickling (default) or "
        "zero-copy shared-memory spans (identical results; needs --workers > 1 "
        "to matter)",
    )
    group.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent experiment cells "
        "(frapp all --jobs 4 runs the whole grid concurrently)",
    )
    group.add_argument(
        "--claim-dir",
        default=None,
        help="shared claim directory for multi-host runs: N frapp processes "
        "pointed at one store and one claim dir split the cell grid via "
        "lease-expiring claims (results identical to a single host)",
    )
    group.add_argument(
        "--lease",
        type=float,
        default=DEFAULT_CLAIM_LEASE,
        help="seconds before a dead peer's claims are stolen "
        "(default %(default)s; needs --claim-dir)",
    )
    return parent
