"""Spawn-per-chunk perturbation, kept as the multi-worker pipeline's oracle.

With ``workers > 1``, :class:`repro.pipeline.PerturbationPipeline`
perturbs chunk ``i`` of ``range(0, N, chunk_size)`` with its own
generator, ``default_rng(SeedSequence(seed).spawn(n)[i])``.  This
module does the same serially, with none of the executor's machinery
(no pool, no ``.frd`` spans, no one-at-a-time spawning), so the tests
check every multi-worker layout against it.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import CategoricalDataset


def perturb_spawned(engine, dataset: CategoricalDataset, seed, chunk_size: int):
    """Perturb ``dataset`` chunk by chunk, chunk ``i`` on spawned child ``i``."""
    records = dataset.records
    starts = range(0, records.shape[0], chunk_size)
    children = np.random.SeedSequence(seed).spawn(len(starts))
    parts = [
        engine.perturb_chunk(
            records[start : start + chunk_size], np.random.default_rng(child)
        )
        for start, child in zip(starts, children)
    ]
    if not parts:
        return CategoricalDataset(dataset.schema, records.copy())
    return CategoricalDataset(dataset.schema, np.concatenate(parts, axis=0))
