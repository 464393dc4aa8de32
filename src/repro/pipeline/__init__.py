"""Streaming + multi-worker perturbation pipeline.

FRAPP's mechanisms are embarrassingly parallel -- every client record
is perturbed independently -- and the miner only ever consumes count
vectors.  This package exploits both facts to turn the one-shot
``engine.perturb(dataset)`` API into a production-shaped pipeline:

* :mod:`repro.pipeline.chunking` -- bounded-batch iteration over
  datasets, arrays and chunk streams;
* :mod:`repro.pipeline.accumulator` -- incremental accumulation, as
  joint counts (``O(|S_U|)`` memory, order-independent, mergeable) or
  as packed transaction bitmaps for the AND/popcount mining kernel;
* :mod:`repro.pipeline.batch` -- the batch-sized entry point for
  incrementally arriving streams (:class:`SequentialPerturbStream`,
  the always-on service's perturbation core);
* :mod:`repro.pipeline.executor` -- the chunked
  :class:`PerturbationPipeline` with multi-process fan-out and the
  SeedSequence-based determinism contract (DESIGN.md, "Scaling");
* :mod:`repro.pipeline.streaming` -- reconstruction and Apriori mining
  straight from accumulated counts, for datasets larger than memory.
"""

from repro.pipeline.accumulator import BitmapAccumulator, JointCountAccumulator
from repro.pipeline.batch import SequentialPerturbStream
from repro.pipeline.chunking import DEFAULT_CHUNK_SIZE, iter_record_chunks
from repro.pipeline.executor import PerturbationPipeline
from repro.pipeline.streaming import (
    AccumulatedSupportEstimator,
    BitmapStreamSupportEstimator,
    mine_stream,
    reconstruct_stream,
)

__all__ = [
    "AccumulatedSupportEstimator",
    "BitmapAccumulator",
    "BitmapStreamSupportEstimator",
    "DEFAULT_CHUNK_SIZE",
    "JointCountAccumulator",
    "PerturbationPipeline",
    "SequentialPerturbStream",
    "iter_record_chunks",
    "mine_stream",
    "reconstruct_stream",
]
