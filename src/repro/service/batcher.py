"""Micro-batching of incoming submissions into pipeline-sized batches.

The service's throughput lever: instead of perturbing each request's
records with their own uniform draw, concurrent submissions to the same
collection are coalesced and flushed as **one batch -- one uniform
block draw** through the collection's
:class:`~repro.pipeline.SequentialPerturbStream`.

Flush policy (both knobs configurable per server):

* ``max_batch`` -- flush as soon as the pending row count reaches it;
* ``max_latency`` -- flush ``max_latency`` seconds after the oldest
  pending submission arrived, however few rows are waiting.

The default ``max_latency`` is 0: **group commit**.  The flush runs on
the next event-loop turn, so a lone submission never waits for company.
Coalescing still happens, because processing a batch (perturb, spool
fsync, journal commit) blocks the loop: every submission that arrives
meanwhile is enqueued on the turns that follow and flushes together as
the next batch.  A positive ``max_latency`` is an opt-in hold that
trades latency for fewer, larger batches (tests use it to build queues
deterministically).

Correctness does not depend on where flushes fall: the sequential
stream's output is bit-identical for *any* batch partition of the
arrival order (see :mod:`repro.pipeline.batch`), so latency-driven
flushes never change results -- only how many RNG calls, numpy
dispatches and fsyncs the same records cost.

The batcher runs entirely on the event loop: submissions enqueue
``(records, future)`` pairs, the flush coalesces them in arrival order,
processes the concatenated batch synchronously (numpy releases the GIL
for the heavy parts), and resolves each future with its slice of the
result.  In-order processing is guaranteed because enqueue and flush
both happen on the loop thread.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.exceptions import ServiceError

#: Default flush thresholds (rows / seconds); a zero hold is group commit.
DEFAULT_MAX_BATCH = 4096
DEFAULT_MAX_LATENCY = 0.0


class MicroBatcher:
    """Coalesce per-request record arrays into processed batches.

    Parameters
    ----------
    process:
        ``(records, parts) -> result`` -- the batch worker (perturb,
        spool append, journal, ledger acknowledge); its result is
        shared by every submission in the batch.  ``parts`` is the
        batch's composition in arrival order, one ``(offset, n,
        context)`` triple per submission (``context`` is whatever the
        submitter passed, e.g. an idempotency key).  Called on the
        event-loop thread, strictly in arrival order.
    max_batch:
        Row count that triggers an immediate flush.
    max_latency:
        Seconds the oldest pending submission may wait before a flush;
        0 flushes on the next event-loop turn (group commit).
    """

    def __init__(
        self,
        process,
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_latency: float = DEFAULT_MAX_LATENCY,
    ):
        if max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {max_batch}")
        if max_latency < 0:
            raise ServiceError(f"max_latency must be >= 0, got {max_latency}")
        self._process = process
        self.max_batch = int(max_batch)
        self.max_latency = float(max_latency)
        self._pending: list[tuple[np.ndarray, object, asyncio.Future]] = []
        self._pending_rows = 0
        self._timer: asyncio.TimerHandle | None = None
        self.batches_flushed = 0
        self.records_processed = 0

    @property
    def pending_rows(self) -> int:
        """Rows enqueued but not yet flushed (the admission meter)."""
        return self._pending_rows

    async def submit(self, records: np.ndarray, context=None):
        """Enqueue one submission; resolves once its batch is processed.

        Returns ``(result, offset, n)``: the shared ``process`` result
        of the flushed batch, plus this submission's row offset and row
        count within it (arrival order), from which the caller slices
        its own records.  ``context`` rides along into the ``parts``
        triples handed to ``process``.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((records, context, future))
        self._pending_rows += int(records.shape[0])
        if self._pending_rows >= self.max_batch:
            self._flush()
        elif self._timer is None:
            self._timer = loop.call_later(self.max_latency, self._flush)
        return await future

    async def drain(self) -> None:
        """Flush whatever is pending now (used at shutdown)."""
        if self._pending:
            self._flush()

    def _flush(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        self._pending_rows = 0
        batch = (
            pending[0][0]
            if len(pending) == 1
            else np.concatenate([records for records, _, _ in pending], axis=0)
        )
        parts = []
        offset = 0
        for records, context, _ in pending:
            n = int(records.shape[0])
            parts.append((offset, n, context))
            offset += n
        try:
            result = self._process(batch, parts)
        except BaseException as error:
            for _, _, future in pending:
                if not future.cancelled():
                    future.set_exception(error)
            return
        for (offset, n, _), (_, _, future) in zip(parts, pending):
            if not future.cancelled():
                future.set_result((result, offset, n))
        self.batches_flushed += 1
        self.records_processed += int(batch.shape[0])
