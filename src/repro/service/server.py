"""The always-on perturbation daemon (``frapp serve``).

FRAPP's deployment model, end to end: respondents submit records to a
long-running collector, records are perturbed in micro-batches, spooled
durably per tenant, and the miner reconstructs supports from the
accumulated perturbed database -- all while a persistent per-tenant
privacy ledger accounts the cumulative ``(rho1, rho2)`` exposure across
collections and refuses submissions that would breach the configured
budget.

Two layers:

* :class:`PerturbationService` -- the transport-free application: tenant
  registration, collection charging against the
  :class:`~repro.service.ledger.LedgerStore`, micro-batched perturbation
  through per-collection :class:`~repro.pipeline.SequentialPerturbStream`
  + :class:`~repro.service.batcher.MicroBatcher` pairs, durable
  :class:`~repro.data.io.FrdSpool` appends, reconstruction and mining
  over running counts of the spooled database (a
  :class:`~repro.pipeline.JointCountAccumulator`, or a
  :class:`~repro.pipeline.BitmapAccumulator` for wide schemas, folded
  with the rows spooled since the previous query).
* :class:`ServiceServer` -- a dependency-free JSON-over-HTTP/1.1 front
  end on ``asyncio.start_server`` (keep-alive, Content-Length framing).

Determinism contract
--------------------
Each collection owns one sequential uniform stream seeded by its
recorded ``seed``.  Submission batches -- however traffic happens to
split them -- consume that stream in arrival order, so the spooled
perturbed records are **bit-identical** to the offline
``engine.perturb(dataset, seed)`` (equivalently, the chunked
:class:`~repro.pipeline.PerturbationPipeline` with ``workers=1``) over
the same records in the same order.  After a crash or restart the
stream fast-forwards past the spool's recovered record count, so the
continuation is bit-identical too.

Exactly-once and overload contract
----------------------------------
Each flushed batch commits as one fsynced journal line in the tenant's
``ledger.log`` (see :mod:`repro.service.ledger`), appended after the
batch's spool rows are fsynced and before anything in memory changes.
The line carries the collection's new acknowledged count and the
journal entries of the batch's keyed submissions, so a retry after any
crash or network failure replays the original response instead of
re-applying.  ``/v1/collections`` charges journal their key in the
charge's snapshot save; ``/v1/tenants`` is naturally idempotent and
``/v1/perturb`` keeps a bounded in-memory journal.  A key reused with a
different payload is refused with HTTP 409 ``idempotency_conflict``.
A batch that fails before its line is durable is rolled back: the
spool is cut back to the acknowledged count and the stream restarts
there, so the next batch continues the offline stream exactly.
When more than ``max_inflight`` POSTs are executing -- or a submission
arrives with ``max_queued_rows`` already enqueued -- the request is shed
*before any state change* with HTTP 429 ``overloaded`` plus a
``Retry-After`` header; shed counters appear under ``admission`` in
``GET /v1/health``.

Endpoints (all bodies JSON; see :mod:`repro.service.wire`)::

    GET  /v1/health                liveness + schema + admission counters
    GET  /v1/ledger                per-tenant cumulative budget summary
    GET  /v1/ledger/<tenant>       one tenant's full ledger
    POST /v1/tenants               {tenant, rho1?, rho2?}
    POST /v1/collections           {tenant, collection?, mechanism?, seed?,
                                    idempotency_key?}
    POST /v1/perturb               {records, mechanism?, seed?,
                                    idempotency_key?} (stateless)
    POST /v1/submit                {tenant, collection?, records,
                                    return_records?, idempotency_key?}
    POST /v1/reconstruct           {tenant, collection?, itemsets}
    POST /v1/mine                  {tenant, collection?, min_support?,
                                    max_length?}

Budget refusals are HTTP 403 with the structured body of
:func:`repro.service.wire.error_body`.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from dataclasses import dataclass, field

from repro import faultpoints
from repro.core.privacy import PrivacyRequirement
from repro.data.io import FrdSpool
from repro.data.schema import Schema
from repro.exceptions import FrappError, ServiceError
from repro.mechanisms import MechanismSpec, PrivacyAccountant, from_spec
from repro.mechanisms.base import MAX_JOINT_ACCUMULATION, MarginalInversionEstimator
from repro.mining.apriori import apriori
from repro.pipeline.accumulator import BitmapAccumulator, JointCountAccumulator
from repro.pipeline.batch import SequentialPerturbStream
from repro.service import wire
from repro.service.batcher import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_LATENCY,
    MicroBatcher,
)
from repro.service.ledger import LedgerStore, TenantLedger

#: Largest request body the HTTP front end accepts (64 MiB).
MAX_BODY_BYTES = 64 << 20

#: Default admission high-water marks (see :class:`ServiceConfig`).
DEFAULT_MAX_INFLIGHT = 64
DEFAULT_MAX_QUEUED_ROWS = 200_000

#: Default seconds :meth:`ServiceServer.stop` gives in-flight requests
#: to complete before their connection tasks are cancelled.
DEFAULT_DRAIN_DEADLINE = 5.0

#: Keyed stateless-perturb responses replayed from process memory (the
#: endpoint has no tenant, hence no persistent journal; see
#: :meth:`PerturbationService.handle_perturb`).
PERTURB_JOURNAL_CAP = 128


def derive_collection_seed(root_seed: int, tenant: str, collection: str) -> int:
    """Deterministic per-collection seed from the server's root seed.

    A stable hash (SHA-256, truncated to 63 bits) of
    ``(root_seed, tenant, collection)`` -- reproducible across runs and
    machines, recorded in the ledger so the collection's perturbation
    is offline-replayable from the ledger alone.
    """
    digest = hashlib.sha256(
        f"{int(root_seed)}\x00{tenant}\x00{collection}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class ServiceConfig:
    """Configuration of one :class:`PerturbationService` instance.

    Attributes
    ----------
    schema:
        The categorical schema every tenant of this server collects.
    data_dir:
        Root of the durable state (ledgers + spools), one
        subdirectory per tenant.
    rho1, rho2:
        Default per-tenant budget: the cumulative worst-case posterior
        ceiling new tenants are registered with.
    mechanism:
        Default mechanism spec for collections opened without one.
    seed:
        Root seed that per-collection seeds are derived from.
    max_batch, max_latency:
        Micro-batcher flush thresholds (rows / seconds).  The default
        ``max_latency`` of 0 is group commit: a batch flushes on the
        next event-loop turn, and whatever arrives while it is
        processed joins the next one.  A positive value holds each
        batch that long for more submissions to join.
    auto_register:
        Whether first-touch tenants/collections are created implicitly
        with the defaults (convenient for simulations; production
        configs disable it and register budgets explicitly).
    max_inflight:
        Admission limit on mutating (POST) requests executing at once;
        excess requests are shed with HTTP 429 before any state
        changes.
    max_queued_rows:
        Admission limit on rows enqueued in micro-batchers but not yet
        flushed; submissions arriving above it are shed with HTTP 429.
    drain_deadline:
        Seconds :meth:`ServiceServer.stop` waits for in-flight
        requests to finish before cancelling their connections.
    """

    schema: Schema
    data_dir: str
    rho1: float = 0.05
    rho2: float = 0.50
    mechanism: dict = field(
        default_factory=lambda: {"name": "det-gd", "params": {"gamma": 19.0}}
    )
    seed: int = 20050405
    max_batch: int = DEFAULT_MAX_BATCH
    max_latency: float = DEFAULT_MAX_LATENCY
    auto_register: bool = True
    max_inflight: int = DEFAULT_MAX_INFLIGHT
    max_queued_rows: int = DEFAULT_MAX_QUEUED_ROWS
    drain_deadline: float = DEFAULT_DRAIN_DEADLINE


class CollectionRuntime:
    """Live state of one open collection: mechanism, stream, spool, batcher."""

    def __init__(self, service: "PerturbationService", ledger, record):
        self.ledger = ledger
        self.record = record
        self.mechanism = from_spec(
            MechanismSpec.from_dict(record.statement.spec), service.schema
        )
        self._service = service
        self._spool_path = (
            service.ledgers.tenant_dir(ledger.tenant) / f"{record.name}.frd"
        )
        self._open()
        self.batcher = MicroBatcher(
            self._process_batch,
            max_batch=service.config.max_batch,
            max_latency=service.config.max_latency,
        )

    def _open(self) -> None:
        """Open spool, stream and counts at the acknowledged count.

        The ledger's acknowledged count caps spool recovery: an fsynced
        but never-committed tail is dropped, keeping spool and stream
        consistent (at-most-once submission semantics).  The counts
        start empty; :meth:`estimator` folds the spool into them.
        """
        schema = self._service.schema
        self.spool = FrdSpool(
            schema, self._spool_path, expected_records=self.record.records
        )
        self.record.records = self.spool.n_records
        self.stream = SequentialPerturbStream(self.mechanism, seed=self.record.seed)
        if self.spool.n_records:
            self.stream.skip_records(self.spool.n_records)
        wide = schema.joint_size > MAX_JOINT_ACCUMULATION
        self.counts = (BitmapAccumulator if wide else JointCountAccumulator)(schema)

    def _process_batch(self, batch, parts):
        """Perturb one flushed batch, spool it, commit it, acknowledge.

        ``parts`` is the batch composition from the micro-batcher; any
        part whose context is an ``(idempotency key, digest)`` pair has
        its response journaled **in the batch's journal line**, the one
        fsynced append that also acknowledges the spooled rows.  So a
        crash leaves either both (retry replays the journaled response)
        or neither (retry re-applies against the recovered spool).  If
        anything raises before the line is durable, spool and stream go
        back to the acknowledged count.
        """
        try:
            perturbed = self.stream.perturb_batch(batch)
            start, stop = self.spool.append(perturbed)
            faultpoints.reach(faultpoints.LEDGER_PRE_COMMIT)
            journal = {}
            for offset, n, context in parts:
                if context is None:
                    continue
                key, digest = context
                journal[key] = {
                    "digest": digest,
                    "response": {
                        "tenant": self.ledger.tenant,
                        "collection": self.record.name,
                        "accepted": n,
                        "start": start + offset,
                        "stop": start + offset + n,
                        "spooled": stop,
                    },
                }
            self._service.ledgers.commit(self.ledger, self.record.name, stop, journal)
        except BaseException:
            self._rollback()
            raise
        return {"start": start, "stop": stop, "perturbed": perturbed}

    def _rollback(self) -> None:
        """Return spool, stream and counts to the acknowledged count."""
        try:
            self.spool.close()
        finally:
            self._open()

    def estimator(self) -> MarginalInversionEstimator:
        """Support estimator over everything spooled so far.

        Folds only the spooled rows the counts have not seen yet, so
        the first query after an open rebuilds them and later queries
        pay for the new rows alone.
        """
        n_records = self.spool.n_records
        if n_records == 0:
            raise ServiceError(
                f"collection {self.record.name!r} has no submissions yet",
                code="empty_collection",
                status=409,
            )
        counted = self.counts.n_records
        if counted < n_records:
            self.counts.update(self.spool.records(counted, n_records))
        return MarginalInversionEstimator(
            self.mechanism, self.counts.subset_counts, n_records
        )

    def close(self) -> None:
        """Flush and close the spool."""
        self.spool.close()


class PerturbationService:
    """The transport-free perturbation service (see module docstring)."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.schema = config.schema
        self.ledgers = LedgerStore(config.data_dir)
        self.accountant = PrivacyAccountant(rho1=config.rho1)
        self._tenants: dict[str, TenantLedger] = {}
        self._runtimes: dict[tuple[str, str], CollectionRuntime] = {}
        # Keyed submissions currently queued/being applied: duplicates
        # arriving while the original is still in flight await the same
        # batcher task instead of enqueueing the records twice.
        self._pending_keys: dict[tuple[str, str], asyncio.Task] = {}
        # Stateless /v1/perturb has no tenant ledger; keyed requests
        # get a bounded in-memory replay journal instead (insertion
        # order == FIFO eviction order).
        self._perturb_journal: dict[str, tuple[str, dict]] = {}
        for tenant in self.ledgers.tenants():
            ledger = self.ledgers.load(tenant)
            self._tenants[tenant] = ledger
            for record in ledger.collections.values():
                self._runtimes[(tenant, record.name)] = CollectionRuntime(
                    self, ledger, record
                )
        # Spool recovery may have truncated acknowledged counts (an
        # operator rolled back spool files); snapshot the reconciled
        # state, which also empties the logs (and any torn tail), so
        # ledger and spools agree from the first request on.
        for ledger in self._tenants.values():
            self.ledgers.save(ledger)

    # ------------------------------------------------------------------
    # tenants and collections
    # ------------------------------------------------------------------
    def register_tenant(
        self, tenant: str, rho1: float | None = None, rho2: float | None = None
    ) -> TenantLedger:
        """Create (or idempotently re-register) a tenant budget."""
        budget = PrivacyRequirement(
            float(rho1 if rho1 is not None else self.config.rho1),
            float(rho2 if rho2 is not None else self.config.rho2),
        )
        existing = self._tenants.get(tenant)
        if existing is not None:
            if (existing.budget.rho1, existing.budget.rho2) != (
                budget.rho1,
                budget.rho2,
            ):
                raise ServiceError(
                    f"tenant {tenant!r} is already registered with budget "
                    f"(rho1={existing.budget.rho1:g}, "
                    f"rho2={existing.budget.rho2:g})",
                    code="tenant_exists",
                    status=409,
                )
            return existing
        ledger = self.ledgers.create(tenant, budget)
        self._tenants[tenant] = ledger
        return ledger

    def _tenant(self, tenant: str) -> TenantLedger:
        ledger = self._tenants.get(tenant)
        if ledger is None:
            if not self.config.auto_register:
                raise ServiceError(
                    f"unknown tenant {tenant!r} (auto-registration is off)",
                    code="unknown_tenant",
                    status=404,
                )
            ledger = self.register_tenant(tenant)
        return ledger

    def _mechanism(self, mechanism) -> tuple:
        """``(spec, live mechanism)`` for a wire spec (default when absent).

        Any refusal -- not a spec, ``params`` that is not an object, an
        unknown name or parameter, a value the factory rejects -- is
        HTTP 400 ``bad_mechanism``.
        """
        mechanism = mechanism or self.config.mechanism
        try:
            spec = MechanismSpec.from_dict(mechanism)
            return spec, from_spec(spec, self.schema)
        except FrappError as error:
            name = mechanism.get("name") if isinstance(mechanism, dict) else mechanism
            raise ServiceError(
                f"cannot build mechanism {name!r}: {error}", code="bad_mechanism"
            ) from None

    def open_collection(
        self,
        tenant: str,
        collection: str,
        mechanism: dict | None = None,
        seed: int | None = None,
        journal: tuple[str, str] | None = None,
    ) -> CollectionRuntime:
        """Open a collection, charging its mechanism to the tenant budget.

        When ``journal`` is an ``(idempotency key, digest)`` pair, the
        response body is journaled in the same atomic snapshot save
        that persists the charge, so a retried open replays instead of
        charging the budget twice.  If the runtime or that save fails,
        the charge and the journal entry are undone and the spool is
        closed.

        Raises
        ------
        BudgetExceededError
            When the charge would breach the tenant's cumulative
            budget; the ledger is unchanged and the HTTP layer answers
            403 with the structured refusal body.
        """
        ledger = self._tenant(tenant)
        _spec, live = self._mechanism(mechanism)
        statement = PrivacyAccountant(rho1=ledger.budget.rho1).statement(live)
        if seed is None:
            seed = derive_collection_seed(self.config.seed, tenant, collection)
        cumulative, entries = ledger.cumulative, dict(ledger.journal)
        record = ledger.charge(collection, statement, int(seed))
        runtime = None
        try:
            runtime = CollectionRuntime(self, ledger, record)
            if journal is not None:
                key, digest = journal
                ledger.journal_record(
                    key, digest, self._collection_response(tenant, collection, runtime)
                )
            self.ledgers.save(ledger)
        except BaseException:
            # Roll the charge and its journal entry back: a collection
            # that never came up must not consume budget.
            del ledger.collections[collection]
            ledger.cumulative, ledger.journal = cumulative, entries
            if runtime is not None:
                runtime.close()
            raise
        self._runtimes[(tenant, collection)] = runtime
        return runtime

    def _runtime(self, tenant: str, collection: str) -> CollectionRuntime:
        runtime = self._runtimes.get((tenant, collection))
        if runtime is None:
            ledger = self._tenant(tenant)
            if collection in ledger.collections or not self.config.auto_register:
                # A persisted collection always has a runtime (built at
                # startup), so this is an unknown collection.
                raise ServiceError(
                    f"unknown collection {collection!r} for tenant {tenant!r}",
                    code="unknown_collection",
                    status=404,
                )
            runtime = self.open_collection(tenant, collection)
        return runtime

    # ------------------------------------------------------------------
    # endpoint bodies
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """``GET /v1/health``."""
        from repro.mining.kernels import native

        info = native.status()
        return {
            "status": "ok",
            "wire_version": wire.WIRE_VERSION,
            "schema": wire.schema_descriptor(self.schema),
            "tenants": len(self._tenants),
            "collections": len(self._runtimes),
            "counting": {
                "active_kernel": "native" if info["available"] else "bitmap",
                "native_available": info["available"],
                "forced_python": info["forced_python"],
                "abi": info["abi"],
            },
        }

    def ledger_summary(self, tenant: str | None = None) -> dict:
        """``GET /v1/ledger`` (all tenants) or ``/v1/ledger/<tenant>``."""
        if tenant is not None:
            ledger = self._tenants.get(tenant)
            if ledger is None:
                raise ServiceError(
                    f"unknown tenant {tenant!r}",
                    code="unknown_tenant",
                    status=404,
                )
            return {"tenant": tenant, "ledger": ledger.to_dict()}
        return {
            "tenants": [
                {
                    "tenant": name,
                    "collections": len(ledger.collections),
                    "records": sum(
                        record.records
                        for record in ledger.collections.values()
                    ),
                    "budget_rho1": ledger.budget.rho1,
                    "budget_rho2": ledger.budget.rho2,
                    "budget_amplification": ledger.budget.gamma,
                    "cumulative_amplification": (
                        ledger.cumulative_amplification()
                    ),
                    "cumulative_rho2": ledger.cumulative_rho2(),
                    "headroom": ledger.headroom(),
                }
                for name, ledger in sorted(self._tenants.items())
            ]
        }

    def handle_tenants(self, body: dict) -> dict:
        """``POST /v1/tenants``."""
        # Registration is naturally idempotent (re-registering the same
        # budget returns the existing ledger; a different budget is a
        # 409), so a key is validated but needs no journal entry.
        wire.idempotency_key(body)
        ledger = self.register_tenant(
            wire.tenant_name(body), body.get("rho1"), body.get("rho2")
        )
        return {"tenant": ledger.tenant, "ledger": ledger.to_dict()}

    def _collection_response(
        self, tenant: str, collection: str, runtime: CollectionRuntime
    ) -> dict:
        ledger = self._tenants[tenant]
        return {
            "tenant": tenant,
            "collection": collection,
            "seed": runtime.record.seed,
            "statement": runtime.record.statement.to_dict(),
            "cumulative_amplification": ledger.cumulative_amplification(),
            "cumulative_rho2": ledger.cumulative_rho2(),
            "headroom": ledger.headroom(),
        }

    def handle_collections(self, body: dict) -> dict:
        """``POST /v1/collections``."""
        tenant = wire.tenant_name(body)
        collection = wire.collection_name(body)
        seed = wire.seed(body)
        key = wire.idempotency_key(body)
        journal = None
        if key is not None:
            digest = wire.payload_digest(
                {
                    "collection": collection,
                    "mechanism": body.get("mechanism"),
                    "seed": seed,
                    "tenant": tenant,
                }
            )
            replay = self._tenant(tenant).journal_lookup(key, digest)
            if replay is not None:
                return dict(replay, replayed=True)
            journal = (key, digest)
        runtime = self.open_collection(
            tenant, collection, body.get("mechanism"), seed, journal=journal
        )
        return self._collection_response(tenant, collection, runtime)

    def handle_perturb(self, body: dict) -> dict:
        """``POST /v1/perturb`` -- stateless, ledger-free perturbation.

        The respondent-side utility: perturbing a record before it
        leaves the client consumes no tenant budget (nothing unperturbed
        is ever stored).  Bit-identical to the offline
        ``engine.perturb(dataset, seed)`` for the same seed.
        """
        rows = wire.require(body, "records")
        records = wire.decode_records(self.schema, rows)
        spec, mechanism = self._mechanism(body.get("mechanism"))
        seed = wire.seed(body)
        key = wire.idempotency_key(body)
        digest = None
        if key is not None:
            digest = wire.payload_digest(
                {"records": rows, "mechanism": body.get("mechanism"),
                 "seed": seed}
            )
            entry = self._perturb_journal.get(key)
            if entry is not None:
                recorded, replay = entry
                if recorded != digest:
                    raise ServiceError(
                        f"idempotency key {key!r} was already used with a "
                        f"different payload",
                        code="idempotency_conflict",
                        status=409,
                    )
                return dict(replay, replayed=True)
        stream = SequentialPerturbStream(mechanism, seed=seed)
        response = {
            "records": wire.encode_records(stream.perturb_batch(records)),
            "mechanism": spec.canonical(),
        }
        if key is not None:
            self._perturb_journal[key] = (digest, dict(response))
            while len(self._perturb_journal) > PERTURB_JOURNAL_CAP:
                self._perturb_journal.pop(next(iter(self._perturb_journal)))
        return response

    def _submit_replay(self, replay: dict, body: dict) -> dict:
        """Rebuild a journaled submit response, re-reading records."""
        response = dict(replay, replayed=True)
        if body.get("return_records"):
            runtime = self._runtime(response["tenant"], response["collection"])
            response["records"] = wire.encode_records(
                runtime.spool.records(response["start"], response["stop"])
            )
        return response

    async def handle_submit(self, body: dict) -> dict:
        """``POST /v1/submit`` -- micro-batched, spooled, acknowledged.

        With an ``idempotency_key`` the submission is exactly-once: a
        key already journaled replays the original response (re-reading
        the perturbed rows from the spool if asked for), a key still in
        flight joins the original's batcher task, and a key journaled
        with a different payload digest is refused with HTTP 409.
        """
        tenant = wire.tenant_name(body)
        collection = wire.collection_name(body)
        rows = wire.require(body, "records")
        records = wire.decode_records(self.schema, rows)
        key = wire.idempotency_key(body)
        runtime = self._runtime(tenant, collection)
        if key is None:
            result, offset, n = await runtime.batcher.submit(records)
        else:
            digest = wire.payload_digest(
                {"collection": collection, "records": rows, "tenant": tenant}
            )
            replay = self._tenants[tenant].journal_lookup(key, digest)
            if replay is not None:
                return self._submit_replay(replay, body)
            pending = self._pending_keys.get((tenant, key))
            if pending is not None:
                # Duplicate while the original is still queued: share
                # its batch slot.  Shielded so one waiter's connection
                # dying never cancels the application itself.
                result, offset, n = await asyncio.shield(pending)
            else:
                task = asyncio.ensure_future(
                    runtime.batcher.submit(records, context=(key, digest))
                )
                self._pending_keys[(tenant, key)] = task
                task.add_done_callback(self._retire_pending(tenant, key))
                result, offset, n = await asyncio.shield(task)
        faultpoints.reach(faultpoints.SERVICE_PRE_RESPOND)
        response = {
            "tenant": tenant,
            "collection": collection,
            "accepted": n,
            "start": result["start"] + offset,
            "stop": result["start"] + offset + n,
            "spooled": runtime.spool.n_records,
        }
        if body.get("return_records"):
            response["records"] = wire.encode_records(
                result["perturbed"][offset : offset + n]
            )
        return response

    def _retire_pending(self, tenant: str, key: str):
        def _done(task: asyncio.Task) -> None:
            self._pending_keys.pop((tenant, key), None)
            # The journal now answers for this key; also swallow the
            # task's exception so an abandoned waiter (connection gone)
            # never trips the loop's unretrieved-exception warning.
            if not task.cancelled():
                task.exception()

        return _done

    def handle_reconstruct(self, body: dict) -> dict:
        """``POST /v1/reconstruct`` -- itemset supports from the spool."""
        tenant = wire.tenant_name(body)
        collection = wire.collection_name(body)
        itemsets = wire.decode_itemsets(
            self.schema, wire.require(body, "itemsets")
        )
        runtime = self._runtime(tenant, collection)
        supports = runtime.estimator().supports(itemsets)
        return {
            "tenant": tenant,
            "collection": collection,
            "n_records": runtime.spool.n_records,
            "supports": [float(s) for s in supports],
        }

    def handle_mine(self, body: dict) -> dict:
        """``POST /v1/mine`` -- Apriori over reconstructed supports."""
        tenant = wire.tenant_name(body)
        collection = wire.collection_name(body)
        min_support = body.get("min_support", 0.02)
        if (
            isinstance(min_support, bool)
            or not isinstance(min_support, (int, float))
            or not 0 < min_support <= 1
        ):
            raise ServiceError(
                f"field 'min_support' must lie in (0, 1], got {min_support!r}"
            )
        max_length = body.get("max_length")
        if max_length is not None and (
            isinstance(max_length, bool)
            or not isinstance(max_length, int)
            or max_length < 1
        ):
            raise ServiceError("field 'max_length' must be a positive integer")
        runtime = self._runtime(tenant, collection)
        result = apriori(
            runtime.estimator(), self.schema, float(min_support), max_length
        )
        return {
            "tenant": tenant,
            "collection": collection,
            "n_records": runtime.spool.n_records,
            "min_support": float(min_support),
            "itemsets": [
                {
                    "length": length,
                    "itemsets": [
                        dict(wire.encode_itemset(its), support=float(support))
                        for its, support in sorted(level.items())
                    ],
                }
                for length, level in sorted(result.by_length.items())
            ],
        }

    def queued_rows(self) -> int:
        """Rows enqueued across all micro-batchers but not yet flushed."""
        return sum(
            runtime.batcher.pending_rows for runtime in self._runtimes.values()
        )

    async def drain(self) -> None:
        """Flush every pending micro-batch (shutdown path)."""
        for runtime in self._runtimes.values():
            await runtime.batcher.drain()

    def close(self) -> None:
        """Snapshot every ledger, then close every spool handle."""
        try:
            for ledger in self._tenants.values():
                self.ledgers.save(ledger)
        finally:
            for runtime in self._runtimes.values():
                runtime.close()


class ServiceServer:
    """JSON-over-HTTP/1.1 front end for a :class:`PerturbationService`.

    Stdlib-only: ``asyncio.start_server`` plus hand-rolled
    Content-Length framing (no chunked encoding; requests and responses
    are single JSON documents).  Connections are keep-alive until the
    client closes or sends ``Connection: close``.

    Admission control: mutating (POST) requests above
    ``config.max_inflight`` -- or submissions arriving with
    ``config.max_queued_rows`` already enqueued -- are shed with a
    structured HTTP 429 and a ``Retry-After`` header *before* any state
    changes, so a shed request is always safe to retry.  Shed counts
    are reported in the ``admission`` block of ``GET /v1/health``.
    """

    def __init__(self, service: PerturbationService, host="127.0.0.1", port=0):
        self.service = service
        self.host = host
        self.port = int(port)
        self._server: asyncio.AbstractServer | None = None
        # Connection task -> busy flag (True while a request is being
        # dispatched or its response written); stop() cancels idle
        # connections immediately and gives busy ones the drain
        # deadline.
        self._states: dict[asyncio.Task, bool] = {}
        self._stopping = False
        self._inflight = 0
        self.shed_inflight = 0
        self.shed_queued = 0

    async def start(self) -> int:
        """Bind and start serving; returns the actual port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def serve_forever(self) -> None:
        """Serve until cancelled."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self, drain_deadline: float | None = None) -> None:
        """Stop accepting, drain in-flight work, close spools.

        Idle keep-alive connections (parked in their read loop) are
        cancelled immediately; connections with a request in flight get
        ``drain_deadline`` seconds (``config.drain_deadline`` when
        ``None``) to finish writing their response, then are cancelled
        too.  Either way every pending micro-batch is flushed before
        the spools close, so accepted submissions are never lost.
        """
        config = self.service.config
        deadline = (
            config.drain_deadline if drain_deadline is None else drain_deadline
        )
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        busy = [task for task, flag in self._states.items() if flag]
        for task in list(self._states):
            if not self._states.get(task, False):
                task.cancel()
        if busy:
            if deadline > 0:
                _done, pending = await asyncio.wait(busy, timeout=deadline)
                for task in pending:
                    task.cancel()
            else:
                for task in busy:
                    task.cancel()
        if self._states:
            await asyncio.gather(*list(self._states), return_exceptions=True)
        await self.service.drain()
        self.service.close()

    # ------------------------------------------------------------------
    # admission control
    # ------------------------------------------------------------------
    def _retry_after(self) -> float:
        """Suggested client backoff: 50 ms, or two holds when longer.

        With the default zero hold (group commit) this is the 50 ms
        floor; an opt-in ``max_latency`` above 25 ms stretches it to
        two flush intervals.
        """
        return max(0.05, 2.0 * self.service.config.max_latency)

    def _admission_refusal(self, method: str, path: str):
        """A ``(status, payload, headers)`` refusal when shedding, else None.

        Only mutating requests are admission-controlled; GETs (health,
        ledger reads) always pass so operators can observe an
        overloaded server.  Shedding happens before dispatch, hence
        before any state change -- a 429 is always safe to retry.
        """
        if method != "POST":
            return None
        config = self.service.config
        retry_after = self._retry_after()
        error = None
        if self._inflight >= config.max_inflight:
            self.shed_inflight += 1
            error = ServiceError(
                f"server is at its in-flight request limit "
                f"({config.max_inflight}); retry after {retry_after:g}s",
                status=429,
                code="overloaded",
                details={
                    "reason": "max_inflight",
                    "limit": config.max_inflight,
                    "retry_after": retry_after,
                },
            )
        elif path == "/v1/submit" and (
            self.service.queued_rows() >= config.max_queued_rows
        ):
            self.shed_queued += 1
            error = ServiceError(
                f"server has {self.service.queued_rows()} rows queued "
                f"(limit {config.max_queued_rows}); retry after "
                f"{retry_after:g}s",
                status=429,
                code="overloaded",
                details={
                    "reason": "max_queued_rows",
                    "limit": config.max_queued_rows,
                    "retry_after": retry_after,
                },
            )
        if error is None:
            return None
        return 429, wire.error_body(error), {"Retry-After": f"{retry_after:g}"}

    def admission_snapshot(self) -> dict:
        """The ``admission`` block of ``GET /v1/health``."""
        config = self.service.config
        return {
            "inflight": self._inflight,
            "max_inflight": config.max_inflight,
            "queued_rows": self.service.queued_rows(),
            "max_queued_rows": config.max_queued_rows,
            "shed_inflight": self.shed_inflight,
            "shed_queued": self.shed_queued,
            "shed_total": self.shed_inflight + self.shed_queued,
            "retry_after": self._retry_after(),
        }

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer):
        task = asyncio.current_task()
        if task is not None:
            self._states[task] = False
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ServiceError as error:
                    # Protocol-level refusal (bad or oversized
                    # Content-Length, malformed request line): answer it
                    # and close -- the framing downstream of the error
                    # is suspect.
                    await self._write_response(
                        writer, error.status, wire.error_body(error), True
                    )
                    break
                if request is None:
                    break
                method, path, headers, body = request
                if task is not None:
                    self._states[task] = True
                close = headers.get("connection", "").lower() == "close"
                refusal = self._admission_refusal(method, path)
                if refusal is not None:
                    status, payload, extra = refusal
                    await self._write_response(
                        writer, status, payload, close, headers=extra
                    )
                else:
                    mutating = method == "POST"
                    if mutating:
                        self._inflight += 1
                    try:
                        status, payload = await self._dispatch(
                            method, path, body
                        )
                    finally:
                        if mutating:
                            self._inflight -= 1
                    await self._write_response(writer, status, payload, close)
                if task is not None:
                    self._states[task] = False
                if close or self._stopping:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Shutdown path: stop() cancelled an idle keep-alive
            # connection (or a busy one past the drain deadline); close
            # the socket and finish quietly.
            pass
        finally:
            if task is not None:
                self._states.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    @staticmethod
    async def _read_request(reader):
        try:
            request_line = await reader.readline()
        except (ConnectionError, OSError):  # pragma: no cover
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise ServiceError(f"malformed request line: {request_line!r}")
        method, path, _version = parts
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        if not raw_length.isdecimal():
            raise ServiceError(f"bad Content-Length header: {raw_length!r}")
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte cap",
                status=413,
                code="body_too_large",
            )
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _dispatch(self, method: str, path: str, raw_body: bytes):
        try:
            body = json.loads(raw_body.decode("utf-8")) if raw_body else {}
        except (ValueError, RecursionError) as error:
            # ValueError covers undecodable bytes, bad JSON and integers
            # past the interpreter's digit limit; RecursionError, nesting
            # too deep to parse.
            return 400, wire.error_body(
                ServiceError(f"request body is not valid JSON: {error}")
            )
        try:
            return 200, await self._route(method, path, body)
        except ServiceError as error:
            return error.status, wire.error_body(error)
        except FrappError as error:
            return 400, wire.error_body(
                ServiceError(str(error), code="frapp_error")
            )
        except Exception as error:  # pragma: no cover - defensive
            return 500, wire.error_body(
                ServiceError(
                    f"internal error: {error}",
                    status=500,
                    code="internal_error",
                )
            )

    async def _route(self, method: str, path: str, body: dict) -> dict:
        service = self.service
        if method == "GET":
            if path == "/v1/health":
                return dict(
                    service.health(), admission=self.admission_snapshot()
                )
            if path == "/v1/ledger":
                return service.ledger_summary()
            if path.startswith("/v1/ledger/"):
                return service.ledger_summary(path[len("/v1/ledger/") :])
        elif method == "POST":
            if path == "/v1/tenants":
                return service.handle_tenants(body)
            if path == "/v1/collections":
                return service.handle_collections(body)
            if path == "/v1/perturb":
                return service.handle_perturb(body)
            if path == "/v1/submit":
                return await service.handle_submit(body)
            if path == "/v1/reconstruct":
                return service.handle_reconstruct(body)
            if path == "/v1/mine":
                return service.handle_mine(body)
        raise ServiceError(
            f"no such endpoint: {method} {path}", status=404, code="not_found"
        )

    @staticmethod
    async def _write_response(
        writer, status: int, payload: dict, close: bool,
        headers: dict | None = None,
    ):
        writer.write(
            wire.frame_response(status, payload, close=close, headers=headers)
        )
        await writer.drain()


async def run_server(config: ServiceConfig, host="127.0.0.1", port=0, announce=None):
    """Build the service, bind, announce the port, and serve forever.

    ``announce`` is called with the bound port once the server is
    listening (the CLI prints the URL; tests and the smoke harness
    parse it).
    """
    server = ServiceServer(PerturbationService(config), host=host, port=port)
    bound = await server.start()
    if announce is not None:
        announce(bound)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()
