"""Batch-sized execution entry point for incremental perturbation.

The always-on service receives records in micro-batches whose
boundaries are set by *traffic* (max-batch / max-latency flushes), not
by a fixed chunk size.  :class:`SequentialPerturbStream` is the
pipeline entry point for that shape of work: it threads **one**
generator through successive batches, exactly like the executor does
with ``workers=1``.

Determinism argument
--------------------
Every chunk-protocol engine consumes a fixed-width block of uniforms
per record, *in record order* (:mod:`repro.core.engine`,
:class:`~repro.mechanisms.base.ColumnarMechanism`).  A single generator
therefore assigns the same uniforms to the ``i``-th record regardless
of where batch boundaries fall, so the concatenation of
:meth:`SequentialPerturbStream.perturb_batch` outputs over *any*
partition of a record stream is bit-identical to the one-shot
``engine.perturb(dataset, seed)`` -- and hence to the offline
:class:`~repro.pipeline.executor.PerturbationPipeline` with
``workers=1`` -- for the same seed.  This is strictly stronger than the
spawn discipline (which fixes outputs only for fixed boundaries) and is
what lets the service's latency-driven flushes stay reproducible.

Restart resumption
------------------
Because the stream's position is a pure function of the number of
records already perturbed, :meth:`SequentialPerturbStream.skip_records`
fast-forwards a fresh stream past ``n`` records by drawing (and
discarding) their uniform blocks.  A service that persists its durable
record count can therefore crash, restart, and continue the *same*
record sequence bit-identically.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ExperimentError
from repro.stats.rng import as_generator


class SequentialPerturbStream:
    """Perturb an incrementally arriving record stream, one batch at a time.

    Parameters
    ----------
    engine:
        Any chunk-protocol engine (``schema`` + ``perturb_chunk``); the
        gamma-diagonal engines and every columnar mechanism qualify.
    seed:
        Seed of the single uniform stream threaded through the batches.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.data.census import generate_census
    >>> from repro.mechanisms import create
    >>> data = generate_census(100, seed=1)
    >>> offline = create("det-gd", data.schema, gamma=19.0)
    >>> stream = SequentialPerturbStream(
    ...     create("det-gd", data.schema, gamma=19.0), seed=7
    ... )
    >>> parts = [
    ...     stream.perturb_batch(data.records[:33]),
    ...     stream.perturb_batch(data.records[33:70]),
    ...     stream.perturb_batch(data.records[70:]),
    ... ]
    >>> bool(
    ...     np.array_equal(
    ...         np.concatenate(parts), offline.perturb(data, seed=7).records
    ...     )
    ... )
    True
    """

    def __init__(self, engine, seed=None):
        for attr in ("schema", "perturb_chunk"):
            if not hasattr(engine, attr):
                raise ExperimentError(
                    f"engine {type(engine).__name__} does not implement the "
                    f"chunk protocol (missing {attr!r})"
                )
        self.engine = engine
        self.schema = engine.schema
        self._rng = as_generator(seed)
        self._n_records = 0

    @property
    def n_records(self) -> int:
        """Records perturbed (or skipped) by this stream so far."""
        return self._n_records

    def perturb_batch(self, records: np.ndarray) -> np.ndarray:
        """Perturb one ``(m, M)`` batch, advancing the shared stream."""
        records = np.asarray(records)
        if records.ndim != 2 or records.shape[1] != self.schema.n_attributes:
            raise ExperimentError(
                f"batches must have shape (m, {self.schema.n_attributes}), "
                f"got {records.shape}"
            )
        perturbed = self.engine.perturb_chunk(records, self._rng)
        self._n_records += int(records.shape[0])
        return perturbed

    def skip_records(self, n: int) -> None:
        """Fast-forward the stream past ``n`` already-perturbed records.

        Draws and discards the records' uniform blocks (in bounded
        slabs, so resuming behind millions of records stays cheap in
        memory).  Requires the engine to declare its per-record
        ``uniform_width`` -- true for every columnar mechanism and the
        paper engines.
        """
        if n < 0:
            raise ExperimentError(f"cannot skip a negative record count ({n})")
        width = getattr(self.engine, "uniform_width", None)
        if width is None:
            raise ExperimentError(
                f"engine {type(self.engine).__name__} declares no uniform_width; "
                "cannot fast-forward its stream"
            )
        remaining = int(n)
        while remaining > 0:
            slab = min(remaining, 1 << 20)
            self._rng.random((slab, int(width)))
            remaining -= slab
        self._n_records += int(n)
