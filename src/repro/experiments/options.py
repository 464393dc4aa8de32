"""Shared execution-knob options for every ``frapp`` invocation.

The execution knobs -- ``--workers``, ``--chunk-size`` and ``--jobs``
-- live in one parent parser (:func:`execution_options`) so every
subcommand (experiments, ``serve``, future tools) spells them
identically and help text cannot drift.  None of them changes a
result.  The counting kernel, the record storage and the chunk
transport are not knobs at all: the kernel layer picks the kernel
(:mod:`repro.mining.kernels`), datasets are always stored compact
(:mod:`repro.data.backing`) and the executor picks the transport from
the source (:mod:`repro.pipeline.executor`).
"""

from __future__ import annotations

import argparse

from repro.pipeline.chunking import DEFAULT_CHUNK_SIZE


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
        default=DEFAULT_CHUNK_SIZE,
        help="records per pipeline chunk (changes no result when workers=1)",
    )
    group.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for independent experiment cells "
        "(frapp all --jobs 4 runs the whole grid concurrently)",
    )
    return parent
