"""The chunked / multi-worker perturbation executor.

:class:`PerturbationPipeline` wraps any perturbation engine that
implements the chunk protocol of :mod:`repro.core.engine`
(``perturb_chunk(records, rng)`` / ``perturb_joint(joint, rng)``) and
runs it over a stream of record chunks, optionally fanning the chunks
out to a pool of worker processes.

Determinism contract
--------------------
The chunks are the spans ``range(0, N, chunk_size)`` of a sized source
(the items of a chunk iterable, re-sliced to at most ``chunk_size``).

* ``workers == 1`` -- one generator runs through the chunks in order.
  Because every engine consumes a fixed-width block of uniforms per
  record *in record order* (see :mod:`repro.core.engine`), the output
  is **bit-identical to the one-shot** ``engine.perturb(dataset,
  seed)`` for the same seed, for *any* chunk size.
* ``workers > 1`` -- chunk ``i`` is perturbed with
  ``default_rng(SeedSequence(seed).spawn(n)[i])`` (children are spawned
  one chunk at a time, so ``n`` need not be known up front).  The
  output is fixed by ``(seed, chunk boundaries)`` alone: it is the same
  for every worker count ``>= 2`` and for either source type below.

How chunk data reaches the workers follows from the source and can
never change a result.  Workers of an open ``.frd``
(:class:`~repro.data.io.FrdDataset`) re-open its memory map once and
receive only ``(start, stop)`` row spans, so the parent never touches
the records; any other source sends each chunk pickled through the
pool pipe.
"""

from __future__ import annotations

import multiprocessing
from collections import deque

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.data.io import FrdDataset, open_frd
from repro.exceptions import DataError, ExperimentError
from repro.mining.kernels import TransactionBitmaps
from repro.pipeline.accumulator import BitmapAccumulator, JointCountAccumulator
from repro.pipeline.chunking import DEFAULT_CHUNK_SIZE, iter_record_chunks
from repro.stats.rng import as_generator, as_seed_sequence

#: Engine handed to each pool worker once at startup (via
#: ``_init_worker``), so tasks carry only (chunk, seed) -- the engine
#: (and any state it caches lazily, like the dense sampler's CDF) is
#: shipped and built per *worker*, not per chunk.
_WORKER_ENGINE = None

#: The ``.frd`` source a worker re-opened at startup, or ``None`` when
#: its tasks carry pickled chunks instead of row spans.
_WORKER_FRD = None


def _init_worker(engine, frd_path):
    global _WORKER_ENGINE, _WORKER_FRD
    _WORKER_ENGINE = engine
    _WORKER_FRD = None if frd_path is None else open_frd(frd_path, engine.schema)


def _pool_task(work, chunk, seed_seq, encode):
    """Run ``work`` on one chunk with its own stream.

    A chunk of an ``.frd`` source arrives as a ``(start, stop)`` row
    span and is read here -- and, with ``encode``, joint-encoded here,
    next to the data.
    """
    if _WORKER_FRD is not None:
        chunk = _WORKER_FRD.records(*chunk)
        if encode:
            chunk = _WORKER_ENGINE.schema.encode(chunk)
    return work(_WORKER_ENGINE, chunk, np.random.default_rng(seed_seq))


def _perturb_records(engine, records, rng):
    """Perturb one record chunk."""
    return engine.perturb_chunk(records, rng)


def _perturb_counts(engine, joint, rng):
    """Perturb one joint-index chunk and bin it locally.

    Only the ``(|S_U|,)`` count vector crosses the process boundary,
    which is what makes the counting path scale: per-chunk IPC is
    independent of the chunk size.
    """
    perturbed = engine.perturb_joint(joint, rng)
    counts = np.bincount(perturbed, minlength=engine.schema.joint_size)
    return counts, joint.shape[0]


def _perturb_bitmaps(engine, records, rng):
    """Perturb one record chunk and pack it into transaction bitmaps.

    Packing happens worker-side, so only the packed words (~8x smaller
    than the records) cross the process boundary and the parent's fold
    is a cheap list append.
    """
    perturbed = engine.perturb_chunk(records, rng)
    return TransactionBitmaps.from_records(engine.schema, perturbed)


class PerturbationPipeline:
    """Streaming, optionally multi-process, perturbation executor.

    See the module docstring for the determinism contract.

    Parameters
    ----------
    engine:
        Any engine with ``schema``, ``perturb_chunk`` and
        ``perturb_joint`` (all engines in :mod:`repro.core.engine`).
    chunk_size:
        Upper bound on records processed per batch.
    workers:
        Number of worker processes; ``1`` runs in-process.
    """

    def __init__(self, engine, chunk_size: int = DEFAULT_CHUNK_SIZE, workers: int = 1):
        for attr in ("schema", "perturb_chunk", "perturb_joint"):
            if not hasattr(engine, attr):
                raise ExperimentError(
                    f"engine {type(engine).__name__} does not implement the chunk "
                    f"protocol (missing {attr!r})"
                )
        if chunk_size < 1:
            raise ExperimentError(f"chunk_size must be >= 1, got {chunk_size}")
        if workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {workers}")
        self.engine = engine
        self.schema = engine.schema
        self.chunk_size = int(chunk_size)
        self.workers = int(workers)

    def _map(self, work, source, seed, encode=False):
        """Yield ``work(engine, chunk, rng)`` for each chunk, in order.

        Chunks are record arrays, or joint indices with ``encode``.
        The pool path keeps at most ``4 * workers`` chunks in flight,
        so streaming sources larger than memory are never drained
        eagerly.
        """
        frd_path = None
        if self.workers > 1 and isinstance(source, FrdDataset):
            if source.schema != self.schema:
                raise DataError("chunk schema does not match the pipeline schema")
            frd_path = str(source.path)
            chunks = (
                (start, start + self.chunk_size)
                for start in range(0, source.n_records, self.chunk_size)
            )
        else:
            chunks = iter_record_chunks(source, self.schema, self.chunk_size)
            if encode:
                chunks = (self.schema.encode(records) for records in chunks)
        if self.workers == 1:
            rng = as_generator(seed)
            for chunk in chunks:
                yield work(self.engine, chunk, rng)
            return
        root = as_seed_sequence(seed)
        pool = multiprocessing.Pool(
            self.workers, initializer=_init_worker, initargs=(self.engine, frd_path)
        )
        try:
            pending = deque()
            for chunk in chunks:
                task = (work, chunk, root.spawn(1)[0], encode)
                pending.append(pool.apply_async(_pool_task, task))
                while len(pending) >= 4 * self.workers:
                    yield pending.popleft().get()
            while pending:
                yield pending.popleft().get()
        finally:
            pool.terminate()
            pool.join()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def perturb_stream(self, source, seed=None):
        """Yield perturbed ``(m, M)`` record arrays, chunk by chunk.

        The fully streaming path: one chunk of input and one chunk of
        output are alive at a time.  ``source`` may be a dataset, a
        record array, an open ``.frd`` dataset, or an iterable of
        datasets / record arrays (e.g. a CSV chunk reader).  Chunk
        dtypes follow the source (compact in, compact out).
        """
        return self._map(_perturb_records, source, seed)

    def perturb(self, dataset: CategoricalDataset, seed=None) -> CategoricalDataset:
        """Chunked counterpart of ``engine.perturb`` (same signature).

        With ``workers=1`` the result is bit-identical to
        ``engine.perturb(dataset, seed)`` for any chunk size.
        """
        if dataset.schema != self.schema:
            raise DataError("dataset schema does not match the perturbation schema")
        parts = list(self.perturb_stream(dataset, seed=seed))
        if not parts:
            return CategoricalDataset._trusted(self.schema, dataset.records)
        return CategoricalDataset._trusted(
            self.schema, np.concatenate(parts, axis=0)
        )

    def accumulate(self, source, seed=None) -> JointCountAccumulator:
        """Perturb a stream and fold it straight into joint counts.

        Never materialises perturbed records beyond one chunk; with
        ``workers > 1`` each worker perturbs and bins its chunks in
        joint-index space and only count vectors return to the parent.
        Workers of an ``.frd`` source also read and encode their own
        spans, so the chunk inputs never cross the process boundary
        either.
        """
        accumulator = JointCountAccumulator(self.schema)
        for counts, n_records in self._map(_perturb_counts, source, seed, encode=True):
            accumulator.update_counts(counts, n_records)
        return accumulator

    def accumulate_bitmaps(self, source, seed=None) -> BitmapAccumulator:
        """Perturb a stream and fold it into packed transaction bitmaps.

        The bitmap-kernel counterpart of :meth:`accumulate`: perturbed
        chunks are packed (64 records per word per item) and merged by
        word-aligned concatenation, so the result answers support
        queries through the vectorized AND/popcount kernel.  With
        ``workers > 1`` each worker perturbs *and packs* its chunks;
        only packed words cross the process boundary.  Chunk outputs
        are identical to :meth:`perturb_stream`, hence the accumulated
        supports match the materialised :meth:`perturb`-then-count path
        exactly for the same seed.
        """
        accumulator = BitmapAccumulator(self.schema)
        for bitmaps in self._map(_perturb_bitmaps, source, seed):
            accumulator.update_bitmaps(bitmaps)
        return accumulator
