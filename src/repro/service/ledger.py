"""Persistent per-tenant privacy ledgers (cumulative (rho1, rho2)).

The PR-5 :class:`~repro.mechanisms.PrivacyAccountant` states what one
mechanism guarantees for one collection.  A deployed service faces the
RAPPOR problem (Erlingsson et al., CCS 2014): the *same* population is
collected repeatedly, and an adversary holding every perturbed release
of a record faces the **product** of the per-collection amplification
bounds.  The ledger is the accountant made persistent and cumulative:

* every tenant carries a configured budget ``(rho1, rho2)`` -- i.e. a
  cumulative amplification ceiling ``gamma_budget`` via paper Eq. (2);
* opening a collection *charges* the mechanism's amplification bound by
  merging its :class:`~repro.mechanisms.PrivacyStatement` into the
  tenant's cumulative statement
  (:meth:`~repro.mechanisms.PrivacyStatement.merge` keeps the flat
  sorted factor multiset, so the reported cumulative ``(rho1, rho2)``
  is independent of charge order);
* a charge that would push the cumulative amplification past the
  budget raises :class:`~repro.exceptions.BudgetExceededError`, which
  the server maps to HTTP 403 with a structured body -- the charge is
  **not** applied, so a refused tenant can still spend exact remaining
  headroom on a smaller mechanism.

Exactly-once journal
--------------------
Each ledger also carries the tenant's **idempotency journal**: a
capped, insertion-ordered map from client-generated idempotency keys
to the response of the mutating request that first carried them.  A
retried request whose key is journaled replays the recorded response
instead of re-spooling rows or re-charging budget; a key reused with a
different payload is refused with HTTP 409 (``idempotency_conflict``).
A batch's journal entries travel in the same journal line as its
acknowledged record count (below), so a crash can leave "neither
applied nor journaled" or "both", never one without the other.

Durability
----------
A tenant's state is a snapshot plus an append-only log, both in
``<root>/<tenant>/``:

* ``ledger.json`` -- the snapshot: :meth:`TenantLedger.to_dict` plus
  ``lines``, the number of journal lines it covers.  It is rewritten
  atomically (write-temp, fsync, rename) when a tenant is created, when
  a collection is charged, when the daemon starts and stops, and
  whenever the log has grown larger than the snapshot -- so the
  rewrites cost a constant share of the bytes appended, and no size
  constant needs tuning.
* ``ledger.log`` -- one JSON line per acknowledged submission batch:
  its sequence number, the collection, the collection's absolute
  acknowledged record count and the batch's journal entries.
  :meth:`LedgerStore.commit` appends and fsyncs the line before the
  in-memory ledger changes; that fsync is the batch's commit point.
  A snapshot save empties the log.

:meth:`LedgerStore.load` replays the complete lines the snapshot does
not cover through :meth:`TenantLedger.apply_batch`, the method the
live path uses.  A torn last line (no newline) is a batch that never
committed and is ignored; a malformed complete line or a gap in the
sequence raises ``ledger_corrupt``.  Lines the snapshot already covers
-- left behind by a crash between the snapshot rename and the log
reset -- are skipped, so no line is ever applied twice.  ``load``
never writes: ``frapp ledger`` may read a live daemon's state.

The invariant linking ledger and spool: a submission batch is fsynced
into the tenant's ``.frd`` spool *before* its journal line is
appended, so on recovery the ledger's ``records`` is a lower bound on
the spool's durable rows and the spool truncates to ``min(complete
rows, acknowledged rows)`` (see :class:`repro.data.io.FrdSpool`).
Version-1 ledgers (one ``ledger.json``, no log) still load.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.privacy import PrivacyRequirement
from repro.exceptions import BudgetExceededError, FrappError, ServiceError
from repro.mechanisms.accountant import PrivacyStatement
from repro.store.store import atomic_write_bytes

#: On-disk ledger format version; bump on incompatible changes.  Version
#: 2 adds the ``ledger.log`` journal lines; version 1 still loads.
LEDGER_VERSION = 2

#: Idempotency journal entries kept per tenant (oldest evicted first).
#: The journal is a sliding dedup window, not an audit log: a client
#: retries within seconds, not after thousands of interleaved keys.
JOURNAL_CAP = 4096


@dataclass
class CollectionRecord:
    """One opened collection of a tenant.

    Attributes
    ----------
    name:
        Collection identifier (unique per tenant).
    statement:
        The privacy statement charged when the collection opened.
    seed:
        The collection's perturbation-stream seed; together with the
        mechanism spec inside ``statement`` it makes the service-side
        output offline-reproducible.
    records:
        Acknowledged (fsynced) submission records.
    """

    name: str
    statement: PrivacyStatement
    seed: int
    records: int = 0

    def to_dict(self) -> dict:
        """JSON-able form (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "statement": self.statement.to_dict(),
            "seed": int(self.seed),
            "records": int(self.records),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CollectionRecord":
        """Rebuild a collection record serialised by :meth:`to_dict`."""
        return cls(
            name=str(data["name"]),
            statement=PrivacyStatement.from_dict(data["statement"]),
            seed=int(data["seed"]),
            records=int(data["records"]),
        )


@dataclass
class TenantLedger:
    """The durable privacy state of one tenant.

    The cumulative statement is **not** recomputed from scratch on
    every query: it is maintained incrementally through
    :meth:`~repro.mechanisms.PrivacyStatement.merge` as collections
    open, serialised with the rest of the state, and survives the
    JSON round-trip bit-for-bit (merge keeps sorted factor multisets,
    so reload-and-continue reports the same ``(rho1, rho2)`` as one
    uninterrupted process).
    """

    tenant: str
    budget: PrivacyRequirement
    collections: dict[str, CollectionRecord] = field(default_factory=dict)
    cumulative: PrivacyStatement | None = None
    #: Idempotency journal: key -> {"digest", "response"}, insertion
    #: ordered, capped at :data:`JOURNAL_CAP`.  Committed in the same
    #: journal line as the acknowledgement it belongs to, so
    #: "journaled" and "applied" are indistinguishable under crashes --
    #: the exactly-once invariant.
    journal: dict[str, dict] = field(default_factory=dict)
    #: Journal lines applied over the tenant's lifetime: the log
    #: position, persisted by :class:`LedgerStore` beside the snapshot
    #: and left out of :meth:`to_dict`.
    lines: int = 0

    @property
    def rho1(self) -> float:
        """The prior every statement of this tenant is evaluated at."""
        return self.budget.rho1

    def cumulative_amplification(self) -> float:
        """Product bound over all charged collections (1.0 when none)."""
        if self.cumulative is None:
            return 1.0
        return self.cumulative.amplification

    def cumulative_rho2(self) -> float:
        """Worst-case cumulative posterior (the prior when uncharged)."""
        if self.cumulative is None:
            return self.budget.rho1
        return self.cumulative.rho2

    def headroom(self) -> float:
        """Multiplicative amplification budget still unspent."""
        return self.budget.gamma / self.cumulative_amplification()

    def _projected(self, statement: PrivacyStatement) -> PrivacyStatement:
        if self.cumulative is None:
            return statement
        return self.cumulative.merge(statement)

    def charge(
        self, name: str, statement: PrivacyStatement, seed: int
    ) -> CollectionRecord:
        """Open collection ``name``, charging its statement to the budget.

        Raises
        ------
        BudgetExceededError
            When the projected cumulative amplification would exceed
            the budget's ``gamma`` (exact exhaustion is allowed, up to
            the accountant's 1e-9 relative tolerance).  The ledger is
            left unchanged.
        ServiceError
            When the collection already exists or the statement's prior
            does not match the tenant's.
        """
        if name in self.collections:
            raise ServiceError(
                f"collection {name!r} of tenant {self.tenant!r} is already open",
                code="collection_exists",
                status=409,
            )
        if statement.rho1 != self.budget.rho1:
            raise ServiceError(
                f"statement prior rho1={statement.rho1} does not match the "
                f"tenant's budget prior rho1={self.budget.rho1}"
            )
        projected = self._projected(statement)
        if not projected.admits(self.budget):
            raise BudgetExceededError(
                f"tenant {self.tenant!r}: opening collection {name!r} would "
                f"raise the cumulative amplification to "
                f"{projected.amplification:g} "
                f"(budget gamma {self.budget.gamma:g}, rho2 ceiling "
                f"{self.budget.rho2:g})",
                details={
                    "tenant": self.tenant,
                    "collection": name,
                    "rho1": self.budget.rho1,
                    "budget_rho2": self.budget.rho2,
                    "budget_amplification": self.budget.gamma,
                    "cumulative_amplification": self.cumulative_amplification(),
                    "cumulative_rho2": self.cumulative_rho2(),
                    "requested_amplification": statement.amplification,
                    "projected_amplification": projected.amplification,
                    "projected_rho2": projected.rho2,
                },
            )
        record = CollectionRecord(name=name, statement=statement, seed=int(seed))
        self.collections[name] = record
        self.cumulative = projected
        return record

    # ------------------------------------------------------------------
    # idempotency journal
    # ------------------------------------------------------------------
    def journal_lookup(self, key: str, digest: str) -> dict | None:
        """The journaled response for ``key``, or ``None`` when unseen.

        Raises
        ------
        ServiceError
            With code ``idempotency_conflict`` (HTTP 409) when ``key``
            was journaled for a *different* payload: replaying the old
            response would silently drop the new one, and applying the
            new one would break the client's exactly-once assumption.
        """
        entry = self.journal.get(key)
        if entry is None:
            return None
        if entry["digest"] != digest:
            raise ServiceError(
                f"idempotency key {key!r} of tenant {self.tenant!r} was "
                f"already used with a different payload",
                code="idempotency_conflict",
                status=409,
                details={"tenant": self.tenant, "idempotency_key": key},
            )
        return entry["response"]

    def journal_record(self, key: str, digest: str, response: dict) -> None:
        """Journal ``response`` under ``key`` (evicting beyond the cap).

        Callers must persist the ledger in the same step that applies
        the journaled effect -- for submissions that is the batch's
        journal line, for collections the charge snapshot -- so a crash
        can never separate "applied" from "journaled".
        """
        self.journal[key] = {"digest": digest, "response": dict(response)}
        while len(self.journal) > JOURNAL_CAP:
            self.journal.pop(next(iter(self.journal)))

    def apply_batch(self, line: dict) -> None:
        """Apply one committed journal line (see :meth:`LedgerStore.commit`).

        Sets the line's collection to its absolute acknowledged count,
        journals each of its ``key -> {"digest", "response"}`` entries
        in order, and advances :attr:`lines` to its sequence number.
        :meth:`LedgerStore.commit` calls this once the line is durable,
        and :meth:`LedgerStore.load` again for every line it replays.
        """
        record = self.collections.get(line["collection"])
        if record is None:
            raise _corrupt(
                self.tenant,
                f"log line {line['seq']} names unknown collection "
                f"{line['collection']!r}",
            )
        record.records = line["records"]
        for key, entry in line["journal"].items():
            self.journal_record(key, entry["digest"], entry["response"])
        self.lines = line["seq"]

    def to_dict(self) -> dict:
        """JSON-able form (inverse of :meth:`from_dict`)."""
        return {
            "version": LEDGER_VERSION,
            "tenant": self.tenant,
            "budget": {"rho1": self.budget.rho1, "rho2": self.budget.rho2},
            "collections": {
                name: record.to_dict()
                for name, record in sorted(self.collections.items())
            },
            "cumulative": (
                None if self.cumulative is None else self.cumulative.to_dict()
            ),
            # Insertion order IS the eviction order; JSON objects keep
            # it (the snapshot is written unsorted), so the journal
            # round-trips with its window intact.
            "journal": {key: dict(entry) for key, entry in self.journal.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TenantLedger":
        """Rebuild a tenant ledger serialised by :meth:`to_dict`."""
        version = data.get("version") if isinstance(data, dict) else None
        if version not in (1, LEDGER_VERSION):
            raise ServiceError(f"unsupported ledger state: {data!r}")
        budget = data["budget"]
        cumulative = data.get("cumulative")
        return cls(
            tenant=str(data["tenant"]),
            budget=PrivacyRequirement(
                float(budget["rho1"]), float(budget["rho2"])
            ),
            collections={
                name: CollectionRecord.from_dict(record)
                for name, record in data.get("collections", {}).items()
            },
            cumulative=(
                None
                if cumulative is None
                else PrivacyStatement.from_dict(cumulative)
            ),
            journal={
                str(key): {
                    "digest": str(entry["digest"]),
                    "response": dict(entry["response"]),
                }
                for key, entry in data.get("journal", {}).items()
            },
        )


class LedgerStore:
    """The on-disk home of every tenant's ledger.

    One directory per tenant under ``root``; the ledger snapshot and
    its log sit next to the tenant's spool files, so a tenant's entire
    durable state moves (and is backed up) as one directory.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def tenant_dir(self, tenant: str) -> Path:
        """The tenant's state directory (created on demand)."""
        return self.root / tenant

    def _ledger_path(self, tenant: str) -> Path:
        return self.tenant_dir(tenant) / "ledger.json"

    def _log_path(self, tenant: str) -> Path:
        return self.tenant_dir(tenant) / "ledger.log"

    def tenants(self) -> list[str]:
        """Registered tenant names (those with a persisted ledger)."""
        return sorted(
            path.parent.name for path in self.root.glob("*/ledger.json")
        )

    def load(self, tenant: str) -> TenantLedger | None:
        """The persisted ledger of ``tenant``, or ``None``.

        The snapshot plus every complete journal line it does not
        cover; a torn last line is ignored.  Nothing is written.  The
        log is read before the snapshot, so a snapshot saved between
        the two reads covers every line read and the load still sees
        one consistent state.

        Raises
        ------
        ServiceError
            With code ``ledger_corrupt`` when the snapshot cannot be
            parsed or is not a ledger, or a complete line is malformed
            or out of sequence -- corrupt privacy state must never be
            silently reset to "unspent".
        """
        path = self._ledger_path(tenant)
        try:
            log = self._log_path(tenant).read_bytes()
        except FileNotFoundError:
            log = b""
        except OSError as error:
            raise _corrupt(tenant, f"unreadable log: {error}") from error
        try:
            data = json.loads(path.read_bytes())
        except FileNotFoundError:
            return None
        except (OSError, ValueError, RecursionError) as error:
            # ValueError covers undecodable bytes, bad JSON and integers
            # past the interpreter's digit limit; RecursionError, nesting
            # too deep to parse.
            raise _corrupt(tenant, f"unreadable snapshot at {path}: {error}") from error
        try:
            ledger = TenantLedger.from_dict(data)
            ledger.lines = int(data.get("lines", 0))
        except (FrappError, ValueError, TypeError, KeyError, AttributeError) as error:
            raise _corrupt(
                tenant,
                f"malformed snapshot at {path}: {type(error).__name__}: {error}",
            ) from None
        # Everything after the last newline is a torn, uncommitted tail.
        complete = log[: log.rfind(b"\n") + 1]
        expected = None
        for number, raw in enumerate(complete.splitlines(), 1):
            line = _parse_line(tenant, number, raw)
            seq = line["seq"]
            if seq > ledger.lines + 1 or (expected is not None and seq != expected):
                raise _corrupt(
                    tenant,
                    f"log line {number} has sequence number {seq}, expected "
                    f"{ledger.lines + 1 if expected is None else expected}",
                )
            expected = seq + 1
            if seq > ledger.lines:
                ledger.apply_batch(line)
        return ledger

    def save(self, ledger: TenantLedger) -> None:
        """Write ``ledger``'s snapshot atomically, then empty its log.

        The snapshot is fsynced before the rename, the emptied log
        after it, and the directory last, so both names are durable
        before any line is committed.  A crash between the rename and
        the log reset leaves lines the snapshot already covers, which
        :meth:`load` skips.
        """
        directory = self.tenant_dir(ledger.tenant)
        directory.mkdir(parents=True, exist_ok=True)
        snapshot = dict(ledger.to_dict(), lines=ledger.lines)
        atomic_write_bytes(
            self._ledger_path(ledger.tenant),
            json.dumps(snapshot, indent=1, allow_nan=False).encode("utf-8"),
            fsync=True,
        )
        with self._log_path(ledger.tenant).open("wb") as handle:
            os.fsync(handle.fileno())
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def commit(
        self, ledger: TenantLedger, collection: str, records: int, journal: dict
    ) -> None:
        """Commit one submission batch as one fsynced journal line.

        The line holds the next sequence number, ``collection``, its
        absolute acknowledged count ``records`` and the batch's
        ``journal`` entries (key -> ``{"digest", "response"}``).  Only
        once it is durable does the in-memory ``ledger`` change, through
        :meth:`TenantLedger.apply_batch`.  A failed append is cut back
        off the log and leaves ``ledger`` unchanged.  When the log has
        outgrown the snapshot, a :meth:`save` follows.
        """
        line = {
            "seq": ledger.lines + 1,
            "collection": collection,
            "records": int(records),
            "journal": journal,
        }
        payload = (
            json.dumps(line, separators=(",", ":"), allow_nan=False) + "\n"
        ).encode("utf-8")
        with self._log_path(ledger.tenant).open("ab", buffering=0) as handle:
            size = handle.tell()
            try:
                if handle.write(payload) != len(payload):
                    raise OSError(f"short write to {handle.name}")
                os.fsync(handle.fileno())
            except BaseException:
                handle.truncate(size)
                raise
            size += len(payload)
        ledger.apply_batch(line)
        if size > self._ledger_path(ledger.tenant).stat().st_size:
            self.save(ledger)

    def create(self, tenant: str, budget: PrivacyRequirement) -> TenantLedger:
        """Create (and persist) a fresh ledger for ``tenant``."""
        ledger = TenantLedger(tenant=tenant, budget=budget)
        self.save(ledger)
        return ledger


def _corrupt(tenant: str, message: str) -> ServiceError:
    return ServiceError(
        f"tenant {tenant!r} has a corrupt ledger: {message}",
        code="ledger_corrupt",
        status=500,
    )


def _parse_line(tenant: str, number: int, raw: bytes) -> dict:
    """One complete journal line, validated (``ledger_corrupt`` if not)."""
    try:
        line = json.loads(raw)
        if not (
            isinstance(line["seq"], int)
            and line["seq"] >= 1
            and isinstance(line["collection"], str)
            and isinstance(line["records"], int)
            and line["records"] >= 0
            and all(
                isinstance(entry["digest"], str)
                and isinstance(entry["response"], dict)
                for entry in line["journal"].values()
            )
        ):
            raise ValueError("bad field types")
    except (ValueError, TypeError, KeyError, AttributeError, RecursionError) as error:
        raise _corrupt(tenant, f"log line {number} is malformed: {error}") from None
    return line

