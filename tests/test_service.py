"""The always-on service: spool durability, ledgers, batching, HTTP.

The load-bearing claims under test:

* ``FrdSpool`` appends survive crashes: recovery truncates to complete
  (and acknowledged) rows, including a torn column file;
* the per-tenant ledger charges, persists atomically, refuses over
  budget with a structured error, allows exact exhaustion, and never
  silently resets corrupt state;
* ``ledger.log`` commits one line per batch: every byte prefix loads to
  the state after its last complete line, bad complete lines are
  ``ledger_corrupt``, ``load`` never writes, and v1 ledgers still load
  and continue their spools (Hypothesis);
* a batch or a collection open that fails before it is durable leaves
  no charge, no journal entry and no drift in the perturbation stream;
* statement merging is order-invariant and JSON round-trips exactly
  (Hypothesis);
* the micro-batcher coalesces submissions in arrival order and flushes
  on both thresholds; at the default zero hold (group commit) what
  arrives while a batch is processed still flushes as one batch;
* the HTTP service's perturbation is bit-identical to the offline
  engine for any submission partition, across restarts, and refuses
  budget breaches with HTTP 403; its answers equal the offline
  estimator, also over a schema too wide for joint counts;
* keyed requests are exactly-once: duplicates replay the journaled
  response (across restarts too), key reuse with a different payload is
  HTTP 409, and the journal is crash-atomic with the ledger ack;
* admission control sheds over-limit work with structured HTTP 429 +
  ``Retry-After`` *before* any state change, and the client's
  :class:`RetryPolicy` backs off deterministically under its deadline.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import random
import shutil
import socket
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.privacy import PrivacyRequirement, rho2_from_gamma
from repro.data import census_schema, generate_census
from repro.data.backing import column_dtypes
from repro.data.dataset import CategoricalDataset
from repro.data.io import FrdSpool
from repro.data.schema import Attribute, Schema
from repro.exceptions import (
    BudgetExceededError,
    DeadlineExceededError,
    PrivacyError,
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
    ServiceUnavailableError,
)
from repro.mechanisms import MechanismSpec, PrivacyAccountant, from_spec
from repro.mechanisms.accountant import PrivacyStatement
from repro.mechanisms.base import MAX_JOINT_ACCUMULATION, MarginalInversionEstimator
from repro.mining.apriori import apriori
from repro.mining.itemsets import Itemset
from repro.pipeline.accumulator import BitmapAccumulator
from repro.pipeline.batch import SequentialPerturbStream
from repro.service import (
    LedgerStore,
    MicroBatcher,
    PerturbationService,
    RetryPolicy,
    ServiceClient,
    ServiceConfig,
    ServiceServer,
    derive_collection_seed,
)
from repro.service import wire
from repro.service.ledger import JOURNAL_CAP, TenantLedger

RHO1 = 0.05
GAMMA = 19.0
DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def schema():
    return census_schema()


@pytest.fixture(scope="module")
def data(schema):
    return generate_census(400, seed=5)


def make_config(schema, tmp_path, **overrides) -> ServiceConfig:
    defaults = dict(
        schema=schema,
        data_dir=str(tmp_path / "state"),
        rho1=RHO1,
        rho2=rho2_from_gamma(RHO1, GAMMA),
        mechanism={"name": "det-gd", "params": {"gamma": GAMMA}},
        seed=1234,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def run_service(config: ServiceConfig, client_fn):
    """Start a real server, run ``client_fn(port)`` in a thread, stop."""

    async def main():
        server = ServiceServer(PerturbationService(config), port=0)
        port = await server.start()
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(None, client_fn, port)
        finally:
            await server.stop()

    return asyncio.run(main())


def offline_perturb(schema, data, seed):
    engine = from_spec(MechanismSpec("det-gd", {"gamma": GAMMA}), schema)
    return engine.perturb(data, seed=seed)


# ----------------------------------------------------------------------
# FrdSpool durability
# ----------------------------------------------------------------------


class TestFrdSpool:
    def test_append_and_read_back(self, schema, data, tmp_path):
        with FrdSpool(schema, tmp_path / "a.frd") as spool:
            start, stop = spool.append(data.records[:150])
            assert (start, stop) == (0, 150)
            start, stop = spool.append(data.records[150:])
            assert (start, stop) == (150, 400)
            assert len(spool) == 400
            np.testing.assert_array_equal(
                spool.records(0, 400), data.records
            )
            np.testing.assert_array_equal(
                spool.records(150, 160), data.records[150:160]
            )

    def test_reopen_recovers_all_rows(self, schema, data, tmp_path):
        with FrdSpool(schema, tmp_path / "a.frd") as spool:
            spool.append(data.records)
        with FrdSpool(schema, tmp_path / "a.frd") as spool:
            assert spool.n_records == 400
            np.testing.assert_array_equal(spool.records(0, 400), data.records)

    def test_torn_column_truncates_to_complete_rows(self, schema, data, tmp_path):
        with FrdSpool(schema, tmp_path / "a.frd") as spool:
            spool.append(data.records)
        # Tear the last column file mid-record: recovery must drop the
        # incomplete tail from EVERY column.
        torn = sorted(tmp_path.glob("a.frd.col*.spool"))[-1]
        torn.write_bytes(torn.read_bytes()[:-3])
        with FrdSpool(schema, tmp_path / "a.frd") as spool:
            assert spool.n_records < 400
            complete = spool.n_records
            np.testing.assert_array_equal(
                spool.records(0, complete), data.records[:complete]
            )
            # The spool stays appendable after recovery.
            spool.append(data.records[complete:])
            np.testing.assert_array_equal(spool.records(0, 400), data.records)

    def test_expected_records_caps_recovery(self, schema, data, tmp_path):
        with FrdSpool(schema, tmp_path / "a.frd") as spool:
            spool.append(data.records)
        # An unacknowledged fsynced tail: the ledger only acked 300.
        with FrdSpool(schema, tmp_path / "a.frd", expected_records=300) as spool:
            assert spool.n_records == 300
            np.testing.assert_array_equal(
                spool.records(0, 300), data.records[:300]
            )

    def test_to_dataset_and_checkpoint(self, schema, data, tmp_path):
        with FrdSpool(schema, tmp_path / "a.frd") as spool:
            spool.append(data.records)
            dataset = spool.to_dataset()
            assert dataset.n_records == 400
            np.testing.assert_array_equal(dataset.records, data.records)
            spool.checkpoint()
            from repro.data import open_frd

            frd = open_frd(tmp_path / "a.frd")
            np.testing.assert_array_equal(frd.records(0, 400), data.records)
            # Still appendable after the checkpoint.
            spool.append(data.records[:10])
            assert spool.n_records == 410


# ----------------------------------------------------------------------
# ledger accounting
# ----------------------------------------------------------------------


def statement_for(gamma: float) -> PrivacyStatement:
    schema = census_schema()
    mechanism = from_spec(MechanismSpec("det-gd", {"gamma": gamma}), schema)
    return PrivacyAccountant(rho1=RHO1).statement(mechanism)


class TestLedger:
    def budget(self, gamma: float) -> PrivacyRequirement:
        return PrivacyRequirement(RHO1, rho2_from_gamma(RHO1, gamma))

    def test_charge_accumulates_product(self, tmp_path):
        store = LedgerStore(tmp_path)
        ledger = store.create("t", self.budget(400.0))
        ledger.charge("a", statement_for(19.0), seed=1)
        ledger.charge("b", statement_for(19.0), seed=2)
        assert ledger.cumulative_amplification() == pytest.approx(361.0)
        assert ledger.cumulative_rho2() == pytest.approx(
            rho2_from_gamma(RHO1, 361.0)
        )

    def test_refusal_is_structured_and_leaves_state(self, tmp_path):
        store = LedgerStore(tmp_path)
        ledger = store.create("t", self.budget(20.0))
        ledger.charge("a", statement_for(19.0), seed=1)
        before = ledger.to_dict()
        with pytest.raises(BudgetExceededError) as excinfo:
            ledger.charge("b", statement_for(19.0), seed=2)
        error = excinfo.value
        assert error.status == 403
        assert error.code == "budget_exceeded"
        assert error.details["tenant"] == "t"
        assert error.details["projected_amplification"] == pytest.approx(361.0)
        # The refused charge must not have touched anything.
        assert ledger.to_dict() == before
        assert "b" not in ledger.collections

    def test_exact_exhaustion_is_admitted(self, tmp_path):
        """A sequence that lands exactly on the budget: charge, charge,
        refuse -- with the final refusal keeping the earlier spend."""
        store = LedgerStore(tmp_path)
        ledger = store.create("t", self.budget(19.0 * 19.0))
        ledger.charge("a", statement_for(19.0), seed=1)
        ledger.charge("b", statement_for(19.0), seed=2)  # exactly exhausts
        assert ledger.headroom() == pytest.approx(1.0)
        with pytest.raises(BudgetExceededError):
            ledger.charge("c", statement_for(1.5), seed=3)
        assert sorted(ledger.collections) == ["a", "b"]

    def test_duplicate_collection_conflicts(self, tmp_path):
        ledger = LedgerStore(tmp_path).create("t", self.budget(400.0))
        ledger.charge("a", statement_for(19.0), seed=1)
        with pytest.raises(ServiceError) as excinfo:
            ledger.charge("a", statement_for(2.0), seed=2)
        assert excinfo.value.code == "collection_exists"
        assert excinfo.value.status == 409

    def test_persist_and_reload_bitwise(self, tmp_path):
        store = LedgerStore(tmp_path)
        ledger = store.create("t", self.budget(400.0))
        ledger.charge("a", statement_for(19.0), seed=1)
        ledger.charge("b", statement_for(3.0), seed=2)
        ledger.collections["a"].records = 123
        store.save(ledger)
        reloaded = store.load("t")
        assert reloaded.to_dict() == ledger.to_dict()
        assert reloaded.cumulative_rho2() == ledger.cumulative_rho2()
        assert store.tenants() == ["t"]

    def test_corrupt_ledger_never_resets(self, tmp_path):
        store = LedgerStore(tmp_path)
        ledger = store.create("t", self.budget(400.0))
        path = store.tenant_dir("t") / "ledger.json"
        path.write_text("{ not json")
        with pytest.raises(ServiceError) as excinfo:
            store.load("t")
        assert excinfo.value.code == "ledger_corrupt"
        assert excinfo.value.status == 500

    @pytest.mark.parametrize(
        "snapshot",
        [
            b'{"version": 2}',
            b'{"version": 2, "budget": 5}',
            b"[" * 100_000 + b"]" * 100_000,
            b"[1, 2]",
        ],
        ids=["no-budget", "no-tenant", "nested-past-recursion-limit",
             "not-an-object"],
    )
    def test_malformed_snapshot_is_ledger_corrupt(self, tmp_path, snapshot):
        store = LedgerStore(tmp_path)
        store.create("t", self.budget(400.0))
        (store.tenant_dir("t") / "ledger.json").write_bytes(snapshot)
        with pytest.raises(ServiceError) as excinfo:
            store.load("t")
        assert excinfo.value.code == "ledger_corrupt"
        assert excinfo.value.status == 500

    def test_prior_mismatch_rejected(self, tmp_path):
        ledger = LedgerStore(tmp_path).create(
            "t", PrivacyRequirement(0.10, 0.50)
        )
        with pytest.raises(ServiceError):
            ledger.charge("a", statement_for(19.0), seed=1)  # rho1=0.05


# ----------------------------------------------------------------------
# statement merge: order invariance + serialisation (Hypothesis)
# ----------------------------------------------------------------------


gammas = st.lists(
    st.floats(min_value=1.01, max_value=50.0, allow_nan=False),
    min_size=2,
    max_size=6,
)


class TestStatementMerge:
    @given(gammas=gammas, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_merge_order_never_changes_reported_rho(self, gammas, seed):
        statements = [
            PrivacyStatement(
                mechanism=f"m{i}",
                spec={"name": f"m{i}", "params": {}},
                amplification=g,
                rho1=RHO1,
                rho2=rho2_from_gamma(RHO1, g),
            )
            for i, g in enumerate(gammas)
        ]
        rng = np.random.default_rng(seed)

        def fold(order):
            items = [statements[i] for i in order]
            merged = items[0]
            for item in items[1:]:
                merged = merged.merge(item)
            return merged

        left = fold(range(len(statements)))
        shuffled = fold(rng.permutation(len(statements)))
        assert left.amplification == shuffled.amplification
        assert left.rho2 == shuffled.rho2
        assert left.rho1 == shuffled.rho1
        assert left.factors == shuffled.factors
        # And a right-fold via a different tree shape: pairwise halves.
        if len(statements) >= 4:
            half = len(statements) // 2
            tree = fold(range(half)).merge(fold(range(half, len(statements))))
            assert tree.amplification == left.amplification
            assert tree.rho2 == left.rho2

    @given(gammas=gammas)
    @settings(max_examples=40, deadline=None)
    def test_statement_json_round_trip_exact(self, gammas):
        merged = statement_for(19.0)
        for g in gammas:
            merged = merged.merge(
                PrivacyStatement(
                    mechanism="x",
                    spec={"name": "x", "params": {"gamma": g}},
                    amplification=g,
                    rho1=RHO1,
                    rho2=rho2_from_gamma(RHO1, g),
                )
            )
        wire_form = json.loads(json.dumps(merged.to_dict(), allow_nan=False))
        back = PrivacyStatement.from_dict(wire_form)
        assert back == merged

    def test_unbounded_statement_serialises(self):
        statement = PrivacyStatement(
            mechanism="leaky",
            spec={"name": "leaky", "params": {}},
            amplification=math.inf,
            rho1=RHO1,
            rho2=1.0,
        )
        encoded = json.dumps(statement.to_dict(), allow_nan=False)
        back = PrivacyStatement.from_dict(json.loads(encoded))
        assert back.amplification == math.inf

    def test_prior_mismatch_raises(self):
        a = statement_for(19.0)
        b = PrivacyStatement(
            mechanism="x",
            spec={"name": "x", "params": {}},
            amplification=2.0,
            rho1=0.10,
            rho2=rho2_from_gamma(0.10, 2.0),
        )
        with pytest.raises(PrivacyError):
            a.merge(b)


# ----------------------------------------------------------------------
# micro-batcher
# ----------------------------------------------------------------------


class TestMicroBatcher:
    def test_coalesces_concurrent_submissions_in_order(self):
        batches = []
        part_lists = []

        def process(batch, parts):
            batches.append(batch.copy())
            part_lists.append(parts)
            return {"rows": int(batch.shape[0])}

        async def main():
            batcher = MicroBatcher(process, max_batch=6, max_latency=60.0)
            a = np.arange(8).reshape(4, 2)
            b = np.arange(8, 14).reshape(3, 2)
            results = await asyncio.gather(
                batcher.submit(a, context="ctx-a"), batcher.submit(b)
            )
            return a, b, results

        a, b, results = asyncio.run(main())
        # 4 + 3 >= 6 triggered one immediate flush of the concatenation.
        assert len(batches) == 1
        np.testing.assert_array_equal(
            batches[0], np.concatenate([a, b], axis=0)
        )
        (r1, off1, n1), (r2, off2, n2) = results
        assert r1 is r2
        assert (off1, n1) == (0, 4)
        assert (off2, n2) == (4, 3)
        # Contexts ride along into the parts, in arrival order.
        assert part_lists == [[(0, 4, "ctx-a"), (4, 3, None)]]

    def test_zero_hold_flushes_one_loop_turn_as_one_batch(self):
        """Group commit: what is enqueued in one loop turn is one batch,
        and a later submission starts the next one."""
        sizes = []

        def process(batch, parts):
            sizes.append(len(parts))

        async def main():
            batcher = MicroBatcher(process)
            first = [
                asyncio.ensure_future(batcher.submit(np.zeros((2, 2), np.int64)))
                for _ in range(5)
            ]
            await asyncio.gather(*first)
            await batcher.submit(np.zeros((1, 2), np.int64))
            return batcher.max_latency, batcher.batches_flushed

        assert asyncio.run(main()) == (0.0, 2)
        assert sizes == [5, 1]

    def test_latency_flush_fires_without_reaching_max_batch(self):
        def process(batch, parts):
            return {"rows": int(batch.shape[0])}

        async def main():
            batcher = MicroBatcher(process, max_batch=10_000, max_latency=0.005)
            result, offset, n = await batcher.submit(np.zeros((3, 2), np.int64))
            return batcher.batches_flushed, offset, n

        flushed, offset, n = asyncio.run(main())
        assert flushed == 1
        assert (offset, n) == (0, 3)

    def test_pending_rows_tracks_queue_and_resets_on_flush(self):
        async def main():
            batcher = MicroBatcher(
                lambda batch, parts: None, max_batch=100, max_latency=60.0
            )
            assert batcher.pending_rows == 0
            waiter = asyncio.ensure_future(
                batcher.submit(np.zeros((7, 2), np.int64))
            )
            await asyncio.sleep(0)
            queued = batcher.pending_rows
            await batcher.drain()
            await waiter
            return queued, batcher.pending_rows

        queued, after = asyncio.run(main())
        assert queued == 7
        assert after == 0

    def test_process_failure_propagates_to_all_waiters(self):
        def process(batch, parts):
            raise RuntimeError("boom")

        async def main():
            batcher = MicroBatcher(process, max_batch=2, max_latency=60.0)
            return await asyncio.gather(
                batcher.submit(np.zeros((1, 2), np.int64)),
                batcher.submit(np.zeros((1, 2), np.int64)),
                return_exceptions=True,
            )

        results = asyncio.run(main())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ServiceError):
            MicroBatcher(lambda b, p: b, max_batch=0)
        with pytest.raises(ServiceError):
            MicroBatcher(lambda b, p: b, max_latency=-1.0)


# ----------------------------------------------------------------------
# wire schema
# ----------------------------------------------------------------------


class TestWire:
    def test_decode_records_round_trip(self, schema, data):
        rows = wire.encode_records(data.records[:10])
        decoded = wire.decode_records(schema, rows)
        np.testing.assert_array_equal(decoded, data.records[:10])

    def test_decode_rejects_bad_shapes_and_domains(self, schema):
        with pytest.raises(ServiceError):
            wire.decode_records(schema, [])
        with pytest.raises(ServiceError):
            wire.decode_records(schema, [[0, 1]])  # wrong width
        too_big = [[999] * schema.n_attributes]
        with pytest.raises(ServiceError):
            wire.decode_records(schema, too_big)
        with pytest.raises(ServiceError):
            wire.decode_records(schema, [["a"] * schema.n_attributes])
        for cell in (0.5, "1", True):
            with pytest.raises(ServiceError, match="integers"):
                wire.decode_records(schema, [[cell] * schema.n_attributes])
        # A bool among ints: NumPy would promote the row to int64.
        with pytest.raises(ServiceError, match="integers"):
            wire.decode_records(schema, [[True, 1, 0, 0, 1, 0]])

    def test_tenant_name_validation(self):
        assert wire.tenant_name({"tenant": "acme-1.prod"}) == "acme-1.prod"
        for bad in ("", "a/b", "../x", None, 7):
            with pytest.raises(ServiceError):
                wire.tenant_name({"tenant": bad})

    def test_itemset_round_trip(self, schema):
        itemset = Itemset([(0, 1), (2, 3)])
        [decoded] = wire.decode_itemsets(
            schema, [wire.encode_itemset(itemset)]
        )
        assert decoded == itemset
        with pytest.raises(ServiceError):
            wire.decode_itemsets(schema, [{"attributes": [0], "values": []}])
        with pytest.raises(ServiceError):
            wire.decode_itemsets(
                schema, [{"attributes": [99], "values": [0]}]
            )


# ----------------------------------------------------------------------
# wire framing and idempotency primitives
# ----------------------------------------------------------------------


class TestWireFraming:
    def test_frame_parse_round_trip_with_retry_after(self):
        frame = wire.frame_response(
            429,
            {"error": {"code": "overloaded"}},
            close=True,
            headers={"Retry-After": "0.25"},
        )
        status, headers, payload = wire.parse_response(frame)
        assert status == 429
        assert headers["retry-after"] == "0.25"
        assert headers["connection"] == "close"
        assert payload == {"error": {"code": "overloaded"}}
        assert b"429 Too Many Requests" in frame

    @given(
        status=st.sampled_from(sorted(wire.REASON_PHRASES)),
        payload=st.dictionaries(
            st.text(
                alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                min_size=1,
                max_size=8,
            ),
            st.one_of(
                st.integers(-(10**9), 10**9),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=20),
                st.booleans(),
            ),
            max_size=5,
        ),
        close=st.booleans(),
        retry_after=st.one_of(
            st.none(), st.floats(min_value=0.01, max_value=10.0)
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_frame_parse_round_trip_property(
        self, status, payload, close, retry_after
    ):
        headers = (
            None if retry_after is None else {"Retry-After": f"{retry_after:g}"}
        )
        frame = wire.frame_response(
            status, payload, close=close, headers=headers
        )
        parsed_status, parsed_headers, parsed_payload = wire.parse_response(
            frame
        )
        assert parsed_status == status
        assert parsed_payload == payload
        expected = "close" if close else "keep-alive"
        assert parsed_headers["connection"] == expected
        if retry_after is not None:
            assert parsed_headers["retry-after"] == f"{retry_after:g}"

    def test_parse_rejects_torn_and_malformed_frames(self):
        frame = wire.frame_response(200, {"a": 1})
        for torn in (
            frame[:-1],  # truncated body
            frame + b"x",  # oversized body vs Content-Length
            b"HTTP/1.1 200 OK\r\nContent-Length: 2",  # torn header
            b"garbage\r\n\r\n",  # malformed status line
            b"HTTP/1.1 abc OK\r\n\r\n",  # non-numeric status
            b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n",  # bad length
        ):
            with pytest.raises(ServiceError):
                wire.parse_response(torn)

    def test_parse_rejects_non_json_body(self):
        body = b"<html>502 Bad Gateway</html>"
        frame = (
            b"HTTP/1.1 502 Bad Gateway\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
        )
        with pytest.raises(ServiceError, match="not valid JSON"):
            wire.parse_response(frame)

    def test_idempotency_key_validation(self):
        assert wire.idempotency_key({}) is None
        assert wire.idempotency_key({"idempotency_key": "k-1"}) == "k-1"
        for bad in ("", "with space", "tab\there", "x" * 201, 7, ["k"]):
            with pytest.raises(ServiceError):
                wire.idempotency_key({"idempotency_key": bad})

    def test_payload_digest_is_canonical(self):
        a = wire.payload_digest({"x": 1, "y": [1, 2]})
        b = wire.payload_digest({"y": [1, 2], "x": 1})
        c = wire.payload_digest({"x": 1, "y": [2, 1]})
        assert a == b
        assert a != c


class TestLedgerJournal:
    def ledger(self):
        return TenantLedger(
            tenant="acme", budget=PrivacyRequirement(RHO1, 0.5)
        )

    def test_record_lookup_and_conflict(self):
        ledger = self.ledger()
        assert ledger.journal_lookup("k", "d1") is None
        ledger.journal_record("k", "d1", {"accepted": 3})
        assert ledger.journal_lookup("k", "d1") == {"accepted": 3}
        with pytest.raises(ServiceError) as excinfo:
            ledger.journal_lookup("k", "d2")
        assert excinfo.value.code == "idempotency_conflict"
        assert excinfo.value.status == 409

    def test_journal_round_trips_through_serialisation(self):
        ledger = self.ledger()
        ledger.journal_record("k1", "d1", {"accepted": 1})
        ledger.journal_record("k2", "d2", {"accepted": 2})
        revived = TenantLedger.from_dict(ledger.to_dict())
        assert revived.journal == ledger.journal
        assert list(revived.journal) == ["k1", "k2"]  # order = eviction order

    def test_journal_evicts_oldest_beyond_cap(self):
        ledger = self.ledger()
        for i in range(JOURNAL_CAP + 10):
            ledger.journal_record(f"k{i}", "d", {"i": i})
        assert len(ledger.journal) == JOURNAL_CAP
        assert "k0" not in ledger.journal
        assert f"k{JOURNAL_CAP + 9}" in ledger.journal


def ledger_state(ledger):
    """Everything a ledger replay must reproduce, journal order included."""
    return ledger.to_dict(), list(ledger.journal), ledger.lines


def batch_journal(keys, start, stop):
    """Journal entries of one submission batch, shaped like the server's."""
    return {
        key: {
            "digest": hashlib.sha256(key.encode()).hexdigest(),
            "response": {
                "tenant": "t",
                "collection": "c",
                "accepted": stop - start,
                "start": start,
                "stop": stop,
                "spooled": stop,
            },
        }
        for key in keys
    }


class TestJournalLines:
    """``ledger.log``: one fsynced line per batch over a snapshot."""

    def open_ledger(self, root, padding=0):
        """A tenant with collection ``c`` and ``padding`` journal entries."""
        store = LedgerStore(root)
        ledger = store.create(
            "t", PrivacyRequirement(RHO1, rho2_from_gamma(RHO1, 400.0))
        )
        ledger.charge("c", statement_for(GAMMA), seed=1)
        for i in range(padding):
            ledger.journal_record(f"pad{i}", "d" * 64, {"accepted": 1})
        store.save(ledger)
        return store, ledger

    @staticmethod
    def paths(store):
        directory = store.tenant_dir("t")
        return directory / "ledger.json", directory / "ledger.log"

    @settings(max_examples=5, deadline=None)
    @given(
        batches=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=5000),
                st.lists(st.sampled_from("abcd"), max_size=2, unique=True),
            ),
            min_size=2,
            max_size=3,
        )
    )
    def test_every_log_prefix_loads_to_its_last_complete_line(self, batches):
        with tempfile.TemporaryDirectory() as root:
            # The padding keeps the snapshot larger than the log, so no
            # snapshot save empties the log in between.
            store, ledger = self.open_ledger(root, padding=16)
            states = [ledger_state(ledger)]
            records = 0
            for i, (rows, keys) in enumerate(batches):
                keys = [f"{key}{i}" for key in keys]
                journal = batch_journal(keys, records, records + rows)
                records += rows
                store.commit(ledger, "c", records, journal)
                states.append(ledger_state(ledger))
            snapshot_path, log_path = self.paths(store)
            snapshot, log = snapshot_path.read_bytes(), log_path.read_bytes()
            assert log.count(b"\n") == len(batches)
            for cut in range(len(log) + 1):
                log_path.write_bytes(log[:cut])
                loaded = store.load("t")
                assert ledger_state(loaded) == states[log[:cut].count(b"\n")]
                assert log_path.read_bytes() == log[:cut]
            assert snapshot_path.read_bytes() == snapshot

    @pytest.mark.parametrize(
        "line",
        [
            b"{not json\n",
            b'{"seq": 3, "collection": "c", "records": "many", "journal": {}}\n',
            b'{"seq": 3, "collection": "c", "records": 9, "journal": []}\n',
            b'{"seq": 3, "collection": "gone", "records": 9, "journal": {}}\n',
            b'{"seq": 4, "collection": "c", "records": 9, "journal": {}}\n',
            b'{"seq": 1, "collection": "c", "records": 9, "journal": {}}\n',
            b"[" * 100_000 + b"]" * 100_000 + b"\n",
        ],
        ids=["bad-json", "bad-type", "bad-journal", "unknown-collection",
             "gap", "out-of-order", "nested-past-recursion-limit"],
    )
    def test_bad_complete_line_is_ledger_corrupt(self, tmp_path, line):
        store, ledger = self.open_ledger(tmp_path)
        store.commit(ledger, "c", 10, batch_journal(["a"], 0, 10))
        store.commit(ledger, "c", 20, batch_journal(["b"], 10, 20))
        _, log_path = self.paths(store)
        with log_path.open("ab") as handle:
            handle.write(line)
        with pytest.raises(ServiceError) as excinfo:
            store.load("t")
        assert excinfo.value.code == "ledger_corrupt"
        assert excinfo.value.status == 500
        # Without its newline the same bytes are a torn tail: ignored.
        log_path.write_bytes(log_path.read_bytes()[:-1])
        assert ledger_state(store.load("t")) == ledger_state(ledger)

    def test_first_line_after_the_snapshot_must_continue_it(self, tmp_path):
        store, ledger = self.open_ledger(tmp_path)
        _, log_path = self.paths(store)
        log_path.write_bytes(
            b'{"seq":2,"collection":"c","records":5,"journal":{}}\n'
        )
        with pytest.raises(ServiceError) as excinfo:
            store.load("t")
        assert excinfo.value.code == "ledger_corrupt"

    def test_crash_before_the_log_reset_applies_no_line_twice(self, tmp_path):
        store, ledger = self.open_ledger(tmp_path)
        store.commit(ledger, "c", 10, batch_journal(["a"], 0, 10))
        store.commit(ledger, "c", 25, batch_journal(["b", "c"], 10, 25))
        snapshot_path, log_path = self.paths(store)
        stale = log_path.read_bytes()
        assert stale.count(b"\n") == 2
        store.save(ledger)
        # The snapshot rename landed but the log reset did not.
        log_path.write_bytes(stale)
        assert ledger_state(store.load("t")) == ledger_state(ledger)
        # A line appended behind the stale ones still applies, once.
        store.commit(ledger, "c", 30, batch_journal(["d"], 25, 30))
        assert log_path.read_bytes().count(b"\n") == 3
        loaded = store.load("t")
        assert ledger_state(loaded) == ledger_state(ledger)
        assert loaded.lines == 3
        assert loaded.collections["c"].records == 30

    def test_load_never_writes(self, tmp_path):
        store, ledger = self.open_ledger(tmp_path)
        store.commit(ledger, "c", 10, batch_journal(["a"], 0, 10))
        snapshot_path, log_path = self.paths(store)
        with log_path.open("ab") as handle:
            handle.write(b'{"seq":2,"collection":"c","rec')  # torn tail
        before = {
            path.name: (path.read_bytes(), path.stat().st_mtime_ns)
            for path in store.tenant_dir("t").iterdir()
        }
        loaded = store.load("t")
        assert ledger_state(loaded) == ledger_state(ledger)
        after = {
            path.name: (path.read_bytes(), path.stat().st_mtime_ns)
            for path in store.tenant_dir("t").iterdir()
        }
        assert after == before

    def test_one_key_batch_line_is_under_1kb(self, tmp_path):
        store, ledger = self.open_ledger(tmp_path)
        journal = batch_journal(["0b5a2c66-52a4-4f6e-9a0e-5c1f0b7a9d11"], 0, 1000)
        store.commit(ledger, "c", 1000, journal)
        line = self.paths(store)[1].read_bytes()
        assert line.count(b"\n") == 1
        assert len(line) < 1024

    def test_snapshot_saves_keep_the_log_no_larger_than_the_snapshot(
        self, tmp_path
    ):
        store, ledger = self.open_ledger(tmp_path)
        snapshot_path, log_path = self.paths(store)
        for i in range(40):
            start, stop = 10 * i, 10 * (i + 1)
            store.commit(ledger, "c", stop, batch_journal([f"k{i}"], start, stop))
            assert log_path.stat().st_size <= snapshot_path.stat().st_size
        # The log was emptied along the way, and what survives on disk
        # is still the whole state.
        assert log_path.read_bytes().count(b"\n") < 40
        assert ledger.lines == 40
        assert ledger_state(store.load("t")) == ledger_state(ledger)

    def test_v1_ledger_loads_and_the_daemon_continues_its_spool(
        self, schema, tmp_path
    ):
        """A v1 ``ledger.json`` plus spool, as an older daemon left them."""
        state = tmp_path / "state"
        shutil.copytree(DATA / "ledger_v1", state)
        tenant_dir = state / "acme"
        assert json.loads((tenant_dir / "ledger.json").read_text())["version"] == 1
        v1_columns = [
            path.read_bytes() for path in sorted(tenant_dir.glob("*.spool"))
        ]
        ledger = LedgerStore(state).load("acme")
        record = ledger.collections["survey"]
        assert record.records == 36
        assert set(ledger.journal) == {"v1-a", "v1-open"}
        data = generate_census(60, seed=11)

        def drive(port):
            client = ServiceClient(port=port)
            replay = client.submit(
                "acme", data.records[:24], collection="survey",
                idempotency_key="v1-a",
            )
            fresh = client.submit("acme", data.records[36:], collection="survey")
            client.close()
            return replay, fresh

        replay, fresh = run_service(make_config(schema, tmp_path), drive)
        assert replay["replayed"] is True
        assert (replay["start"], replay["stop"]) == (0, 24)
        assert (fresh["start"], fresh["stop"]) == (36, 60)
        mechanism = from_spec(MechanismSpec.from_dict(record.statement.spec), schema)
        offline = mechanism.perturb(data, seed=record.seed)
        for j, (path, dtype) in enumerate(
            zip(sorted(tenant_dir.glob("*.spool")), column_dtypes(schema))
        ):
            spooled = path.read_bytes()
            assert spooled[: len(v1_columns[j])] == v1_columns[j]
            assert spooled == offline.records[:, j].astype(dtype).tobytes()
        upgraded = LedgerStore(state).load("acme")
        assert upgraded.collections["survey"].records == 60
        assert json.loads((tenant_dir / "ledger.json").read_text())["version"] == 2


# ----------------------------------------------------------------------
# the HTTP service end to end
# ----------------------------------------------------------------------


#: Mechanism parameters every entry point must refuse with a typed error:
#: an unknown name, the removed counting knob, a value the factory
#: cannot take, and ``params`` that is not a JSON object.
BAD_MECHANISM_PARAMS = [
    pytest.param({"gama": GAMMA}, id="unknown-parameter"),
    pytest.param({"gamma": GAMMA, "count_backend": "native"}, id="count-backend"),
    pytest.param({"gamma": "x"}, id="bad-value"),
    pytest.param([1, 2], id="params-list"),
    pytest.param("ab", id="params-string"),
    pytest.param(7, id="params-number"),
]


class TestBadMechanismSpecs:
    @pytest.mark.parametrize("params", BAD_MECHANISM_PARAMS)
    def test_dispatcher_answers_400_bad_mechanism(self, schema, data, tmp_path, params):
        """Perturb and collection open fail closed and charge nothing."""
        service = PerturbationService(make_config(schema, tmp_path))
        server = ServiceServer(service)
        mechanism = {"name": "det-gd", "params": params}
        requests = {
            "/v1/perturb": {
                "records": wire.encode_records(data.records[:3]),
                "mechanism": mechanism,
            },
            "/v1/collections": {
                "tenant": "acme",
                "collection": "typo",
                "mechanism": mechanism,
            },
        }
        try:
            for path, body in requests.items():
                status, reply = asyncio.run(
                    server._dispatch("POST", path, json.dumps(body).encode())
                )
                assert status == 400, (path, reply)
                assert reply["error"]["code"] == "bad_mechanism"
                assert "det-gd" in reply["error"]["message"]
            ledger = service.ledger_summary("acme")["ledger"]
            assert ledger["collections"] == {}
        finally:
            service.close()


def dispatch(server, path, body):
    return asyncio.run(server._dispatch("POST", path, json.dumps(body).encode()))


class TestFailedOpensChargeNothing:
    @pytest.mark.parametrize("seed", [-5, True], ids=["negative", "bool"])
    def test_bad_seed_answers_400_and_leaves_the_ledger(
        self, schema, data, tmp_path, seed
    ):
        service = PerturbationService(make_config(schema, tmp_path))
        server = ServiceServer(service)
        try:
            status, _ = dispatch(server, "/v1/collections", {"tenant": "acme"})
            assert status == 200
            before = service.ledger_summary()
            requests = {
                "/v1/collections": {
                    "tenant": "acme",
                    "collection": "bad",
                    "seed": seed,
                },
                "/v1/perturb": {
                    "records": wire.encode_records(data.records[:3]),
                    "seed": seed,
                },
                "/v1/mine": {"tenant": "acme", "min_support": True},
            }
            for path, body in requests.items():
                status, reply = dispatch(server, path, body)
                assert status == 400, (path, reply)
                assert reply["error"]["code"] == "bad_request"
            status, reply = dispatch(
                server, "/v1/mine", {"tenant": "acme", "max_length": True}
            )
            assert status == 400, reply
            assert service.ledger_summary() == before
        finally:
            service.close()

    def test_runtime_failure_rolls_back_the_charge(
        self, schema, tmp_path, monkeypatch
    ):
        """A budget of one DET-GD(19) collection survives a failed open."""
        import repro.service.server as server_module

        service = PerturbationService(make_config(schema, tmp_path))
        server = ServiceServer(service)

        def broken_runtime(*args, **kwargs):
            raise RuntimeError("spool unavailable")

        try:
            with monkeypatch.context() as patch:
                patch.setattr(server_module, "CollectionRuntime", broken_runtime)
                status, _ = dispatch(server, "/v1/collections", {"tenant": "acme"})
            assert status == 500
            ledger = service.ledger_summary("acme")["ledger"]
            assert ledger["collections"] == {}
            assert ledger["cumulative"] is None
            status, reply = dispatch(server, "/v1/collections", {"tenant": "acme"})
            assert status == 200, reply
            assert reply["cumulative_amplification"] == pytest.approx(GAMMA)
        finally:
            service.close()


    def test_failed_snapshot_save_rolls_back_the_charge(
        self, schema, data, tmp_path, monkeypatch
    ):
        """The charge's snapshot save fails: no charge, no journal entry."""
        service = PerturbationService(make_config(schema, tmp_path))
        server = ServiceServer(service)
        service.register_tenant("acme")

        def broken_save(*args, **kwargs):
            raise OSError("disk full")

        try:
            with monkeypatch.context() as patch:
                patch.setattr(LedgerStore, "save", broken_save)
                status, _ = dispatch(
                    server,
                    "/v1/collections",
                    {"tenant": "acme", "idempotency_key": "open-1"},
                )
            assert status == 500
            ledger = service.ledger_summary("acme")["ledger"]
            assert ledger["collections"] == {}
            assert ledger["cumulative"] is None
            assert ledger["journal"] == {}
            [summary] = service.ledger_summary()["tenants"]
            assert summary["cumulative_amplification"] == 1.0
            status, reply = dispatch(server, "/v1/collections", {"tenant": "acme"})
            assert status == 200, reply
            assert reply["cumulative_amplification"] == pytest.approx(GAMMA)
            status, reply = dispatch(
                server,
                "/v1/submit",
                {"tenant": "acme", "records": wire.encode_records(data.records[:5])},
            )
            assert status == 200, reply
        finally:
            service.close()


#: Well-formed JSON that ``json.loads`` still cannot decode.
UNDECODABLE_BODIES = [
    b'{"tenant": ' + b"9" * 5000 + b"}",
    b"[" * 100_000 + b"]" * 100_000,
]
UNDECODABLE_IDS = ["integer-past-digit-limit", "nested-past-recursion-limit"]


class TestUntrustedInput:
    """Bad cells, itemsets and framing answer 400 before any state changes."""

    @pytest.mark.parametrize(
        "cell", [0.5, "1", True], ids=["float", "string", "bool"]
    )
    def test_coerced_cells_answer_400(self, schema, data, tmp_path, cell):
        service = PerturbationService(make_config(schema, tmp_path))
        server = ServiceServer(service)
        try:
            status, _ = dispatch(server, "/v1/collections", {"tenant": "acme"})
            assert status == 200
            before = service.ledger_summary()
            rows = wire.encode_records(data.records[:3])
            rows[1][0] = cell
            requests = {
                "/v1/submit": {"tenant": "acme", "records": rows},
                "/v1/perturb": {"records": rows},
            }
            for path, body in requests.items():
                status, reply = dispatch(server, path, body)
                assert status == 400, (path, reply)
                assert reply["error"]["code"] == "bad_request"
            assert service.queued_rows() == 0
            assert service.ledger_summary() == before
        finally:
            service.close()

    @pytest.mark.parametrize(
        "itemset",
        [
            {"attributes": [0], "values": [99]},
            {"attributes": [0], "values": [-1]},
            {"attributes": [0], "values": [1.0]},
            {"attributes": [0.5], "values": [0]},
            {"attributes": [True], "values": [0]},
        ],
        ids=["value-out-of-domain", "negative-value", "float-value",
             "float-attribute", "bool-attribute"],
    )
    def test_bad_itemsets_answer_400(self, schema, data, tmp_path, itemset):
        service = PerturbationService(make_config(schema, tmp_path))
        server = ServiceServer(service)
        try:
            status, _ = dispatch(
                server,
                "/v1/submit",
                {"tenant": "acme", "records": wire.encode_records(data.records[:20])},
            )
            assert status == 200
            status, reply = dispatch(
                server, "/v1/reconstruct", {"tenant": "acme", "itemsets": [itemset]}
            )
            assert status == 400, reply
            assert reply["error"]["code"] == "bad_request"
        finally:
            service.close()

    @pytest.mark.parametrize("raw", UNDECODABLE_BODIES, ids=UNDECODABLE_IDS)
    def test_undecodable_bodies_answer_400(self, schema, tmp_path, raw):
        service = PerturbationService(make_config(schema, tmp_path))
        server = ServiceServer(service)
        try:
            status, reply = asyncio.run(server._dispatch("POST", "/v1/tenants", raw))
            assert status == 400, reply
            assert reply["error"]["code"] == "bad_request"
            assert service.ledger_summary()["tenants"] == []
        finally:
            service.close()

    @pytest.mark.parametrize("length", ["abc", "-5"])
    def test_bad_content_length_answers_400_and_closes(
        self, schema, tmp_path, length
    ):
        import socket

        def drive(port):
            with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
                sock.sendall(
                    b"POST /v1/submit HTTP/1.1\r\nHost: localhost\r\n"
                    + f"Content-Length: {length}\r\n\r\n".encode("latin-1")
                )
                frame = b""
                while chunk := sock.recv(65536):
                    frame += chunk
            return wire.parse_response(frame)

        status, headers, payload = run_service(make_config(schema, tmp_path), drive)
        assert status == 400
        assert payload["error"]["code"] == "bad_request"
        assert "Content-Length" in payload["error"]["message"]
        assert headers["connection"] == "close"


def _answer_once(frame: bytes):
    """A listener that answers one request with ``frame`` verbatim."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def serve():
        conn, _ = listener.accept()
        with conn:
            request = b""
            while b"\r\n\r\n" not in request:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                request += chunk
            conn.sendall(frame)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener, thread


class TestUntrustedResponses:
    """A well-framed response whose body does not decode raises a typed
    ``ServiceError`` on the client side of the wire."""

    @staticmethod
    def frame(body: bytes) -> bytes:
        return (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1")
            + body
        )

    @pytest.mark.parametrize("body", UNDECODABLE_BODIES, ids=UNDECODABLE_IDS)
    def test_parse_response_raises_service_error(self, body):
        with pytest.raises(ServiceError, match="not valid JSON"):
            wire.parse_response(self.frame(body))

    @pytest.mark.parametrize("body", UNDECODABLE_BODIES, ids=UNDECODABLE_IDS)
    def test_client_raises_bad_gateway(self, body):
        listener, thread = _answer_once(self.frame(body))
        client = ServiceClient(port=listener.getsockname()[1], timeout=30)
        try:
            with pytest.raises(ServiceError) as excinfo:
                client.health()
            assert excinfo.value.code == "bad_gateway"
            assert excinfo.value.status == 502
        finally:
            client.close()
            thread.join(timeout=30)
            listener.close()
        assert not thread.is_alive()


class _FailOnce:
    """A spool column handle whose next write raises ``OSError``."""

    def __init__(self, handle):
        self._handle = handle
        self._failed = False

    def write(self, data):
        if not self._failed:
            self._failed = True
            raise OSError("injected column write failure")
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)


class TestFailedBatchesRollBack:
    """A batch that fails before its journal line is durable leaves nothing."""

    @staticmethod
    def submit(server, rows, key=None):
        body = {"tenant": "acme", "records": wire.encode_records(rows)}
        if key is not None:
            body["idempotency_key"] = key
        return dispatch(server, "/v1/submit", body)

    def test_failed_commit_answers_500_and_the_retry_applies(
        self, schema, data, tmp_path, monkeypatch
    ):
        service = PerturbationService(make_config(schema, tmp_path))
        server = ServiceServer(service)
        rows = data.records[:20]

        def broken_commit(*args, **kwargs):
            raise OSError("disk full")

        try:
            status, _ = dispatch(server, "/v1/collections", {"tenant": "acme"})
            assert status == 200
            with monkeypatch.context() as patch:
                patch.setattr(LedgerStore, "commit", broken_commit)
                status, reply = self.submit(server, rows, key="k1")
            assert status == 500, reply
            durable = LedgerStore(tmp_path / "state").load("acme")
            assert durable.collections["default"].records == 0
            assert "k1" not in durable.journal
            status, reply = self.submit(server, rows, key="k1")
            assert status == 200, reply
            assert "replayed" not in reply
            assert (reply["accepted"], reply["start"], reply["stop"]) == (20, 0, 20)
        finally:
            service.close()
        seed = derive_collection_seed(1234, "acme", "default")
        with FrdSpool(schema, tmp_path / "state" / "acme" / "default.frd") as spool:
            assert spool.n_records == 20
            np.testing.assert_array_equal(
                spool.records(0, 20),
                offline_perturb(schema, CategoricalDataset(schema, rows), seed).records,
            )

    def test_failed_column_write_keeps_the_stream_exact(
        self, schema, data, tmp_path
    ):
        service = PerturbationService(make_config(schema, tmp_path))
        server = ServiceServer(service)
        rows = data.records[:60]
        try:
            status, _ = self.submit(server, rows[:20])
            assert status == 200
            spool = service._runtimes[("acme", "default")].spool
            spool._handles[2] = _FailOnce(spool._handles[2])
            status, reply = self.submit(server, rows[20:40])
            assert status == 500, reply
            for lo, hi in [(20, 40), (40, 60)]:
                status, reply = self.submit(server, rows[lo:hi])
                assert status == 200, reply
                assert (reply["start"], reply["stop"]) == (lo, hi)
        finally:
            service.close()
        seed = derive_collection_seed(1234, "acme", "default")
        offline = offline_perturb(schema, CategoricalDataset(schema, rows), seed)
        with FrdSpool(schema, tmp_path / "state" / "acme" / "default.frd") as spool:
            assert spool.n_records == 60
            np.testing.assert_array_equal(spool.records(0, 60), offline.records)


class TestWideSchemaService:
    def test_answers_equal_offline_marginal_inversion(self, tmp_path):
        """12 four-valued attributes: a joint domain too wide to count."""
        wide = Schema(
            [Attribute(f"a{i}", [f"v{j}" for j in range(4)]) for i in range(12)]
        )
        assert wide.joint_size > MAX_JOINT_ACCUMULATION
        rng = np.random.default_rng(3)
        records = rng.integers(0, 4, size=(300, 12))
        records[:200, 0] = 1
        records[:200, 5] = 2
        itemsets = [
            {"attributes": [0], "values": [1]},
            {"attributes": [0, 5], "values": [1, 2]},
            {"attributes": [3, 7, 11], "values": [0, 1, 2]},
        ]
        service = PerturbationService(make_config(wide, tmp_path))
        server = ServiceServer(service)
        answers = []
        try:
            for lo, hi in [(0, 120), (120, 300)]:
                status, reply = dispatch(
                    server,
                    "/v1/submit",
                    {"tenant": "acme", "records": wire.encode_records(records[lo:hi])},
                )
                assert status == 200, reply
                status, reply = dispatch(
                    server,
                    "/v1/reconstruct",
                    {"tenant": "acme", "itemsets": itemsets},
                )
                assert status == 200, reply
                answers.append(reply)
            status, mined = dispatch(
                server,
                "/v1/mine",
                {"tenant": "acme", "min_support": 0.3, "max_length": 2},
            )
            assert status == 200, mined
            runtime = service._runtimes[("acme", "default")]
            assert isinstance(runtime.counts, BitmapAccumulator)
        finally:
            service.close()
        mechanism = from_spec(MechanismSpec("det-gd", {"gamma": GAMMA}), wide)
        seed = derive_collection_seed(1234, "acme", "default")
        offline = mechanism.perturb(CategoricalDataset(wide, records), seed=seed)
        decoded = wire.decode_itemsets(wide, itemsets)

        def estimator(n):
            prefix = CategoricalDataset(wide, offline.records[:n])
            return MarginalInversionEstimator(mechanism, prefix.subset_counts, n)

        for n, answer in zip([120, 300], answers):
            assert answer["n_records"] == n
            assert answer["supports"] == [
                float(s) for s in estimator(n).supports(decoded)
            ]
        result = apriori(estimator(300), wide, 0.3, 2)
        assert mined["itemsets"] == [
            {
                "length": length,
                "itemsets": [
                    dict(wire.encode_itemset(its), support=float(support))
                    for its, support in sorted(level.items())
                ],
            }
            for length, level in sorted(result.by_length.items())
        ]
        assert mined["itemsets"][-1]["length"] == 2


class TestServiceEndToEnd:
    def test_submissions_bit_identical_to_offline(self, schema, data, tmp_path):
        config = make_config(schema, tmp_path)

        def drive(port):
            client = ServiceClient(port=port)
            assert client.health()["status"] == "ok"
            # Deliberately odd partition: batch boundaries must not
            # influence the perturbation stream.
            for lo, hi in [(0, 7), (7, 130), (130, 131), (131, 400)]:
                response = client.submit("acme", data.records[lo:hi])
            assert response["spooled"] == 400
            supports = client.reconstruct(
                "acme", [{"attributes": [0], "values": [1]}]
            )["supports"]
            client.close()
            return supports

        supports = run_service(config, drive)
        seed = derive_collection_seed(config.seed, "acme", "default")
        offline = offline_perturb(schema, data, seed)
        with FrdSpool(
            schema, tmp_path / "state" / "acme" / "default.frd"
        ) as spool:
            np.testing.assert_array_equal(
                spool.records(0, 400), offline.records
            )
        estimator = MarginalInversionEstimator(
            from_spec(MechanismSpec("det-gd", {"gamma": GAMMA}), schema),
            offline.subset_counts,
            offline.n_records,
        )
        assert supports == [float(s) for s in estimator.supports([Itemset([(0, 1)])])]

    def test_restart_resumes_bit_identically(self, schema, data, tmp_path):
        config = make_config(schema, tmp_path)

        def first_half(port):
            ServiceClient(port=port).submit("acme", data.records[:250])

        def second_half(port):
            return ServiceClient(port=port).submit("acme", data.records[250:])

        run_service(config, first_half)
        response = run_service(make_config(schema, tmp_path), second_half)
        assert response["spooled"] == 400
        seed = derive_collection_seed(config.seed, "acme", "default")
        offline = offline_perturb(schema, data, seed)
        with FrdSpool(
            schema, tmp_path / "state" / "acme" / "default.frd"
        ) as spool:
            np.testing.assert_array_equal(
                spool.records(0, 400), offline.records
            )

    def test_budget_breach_is_http_403_with_details(self, schema, data, tmp_path):
        config = make_config(
            schema, tmp_path, rho2=rho2_from_gamma(RHO1, 20.0)
        )

        def drive(port):
            client = ServiceClient(port=port)
            client.submit("acme", data.records[:10])  # opens "default"
            with pytest.raises(BudgetExceededError) as excinfo:
                client.open_collection("acme", "second")
            return excinfo.value

        error = run_service(config, drive)
        assert error.status == 403
        assert error.code == "budget_exceeded"
        assert error.details["collection"] == "second"
        assert error.details["budget_amplification"] == pytest.approx(20.0)
        assert error.details["projected_amplification"] == pytest.approx(361.0)

    def test_exhaustion_sequence_first_refusal_keeps_spend(
        self, schema, data, tmp_path
    ):
        config = make_config(
            schema, tmp_path, rho2=rho2_from_gamma(RHO1, GAMMA * GAMMA)
        )

        def drive(port):
            client = ServiceClient(port=port)
            client.submit("acme", data.records[:10], collection="a")
            client.submit("acme", data.records[10:20], collection="b")
            with pytest.raises(BudgetExceededError):
                client.submit("acme", data.records[20:30], collection="c")
            summary = client.ledger()["tenants"][0]
            ledger = client.ledger("acme")["ledger"]
            return summary, ledger

        summary, ledger = run_service(config, drive)
        assert summary["headroom"] == pytest.approx(1.0)
        assert sorted(ledger["collections"]) == ["a", "b"]
        assert ledger["collections"]["a"]["records"] == 10

    def test_stateless_perturb_matches_offline(self, schema, data, tmp_path):
        config = make_config(schema, tmp_path)

        def drive(port):
            client = ServiceClient(port=port)
            return client.perturb(
                data.records[:50],
                mechanism={"name": "det-gd", "params": {"gamma": GAMMA}},
                seed=777,
            )["records"]

        perturbed = run_service(config, drive)
        offline = offline_perturb(
            schema,
            type(data)._trusted(schema, data.records[:50].copy()),
            777,
        )
        np.testing.assert_array_equal(
            np.asarray(perturbed), offline.records
        )

    def test_mine_endpoint_returns_frequent_itemsets(self, schema, data, tmp_path):
        config = make_config(schema, tmp_path)

        def drive(port):
            client = ServiceClient(port=port)
            client.submit("acme", data.records)
            return client.mine("acme", min_support=0.4, max_length=1)

        result = run_service(config, drive)
        assert result["n_records"] == 400
        [level] = result["itemsets"]
        assert level["length"] == 1
        assert all(
            entry["support"] >= 0.4 for entry in level["itemsets"]
        )

    def test_unknown_paths_and_bad_json_are_structured(self, schema, tmp_path):
        config = make_config(schema, tmp_path)

        def drive(port):
            import http.client

            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            conn.request("GET", "/nope")
            missing = json.loads(conn.getresponse().read())
            conn.request(
                "POST",
                "/v1/submit",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            bad = json.loads(conn.getresponse().read())
            conn.close()
            return missing, bad

        missing, bad = run_service(config, drive)
        assert missing["error"]["code"] == "not_found"
        assert bad["error"]["code"] == "bad_request"

    def test_auto_register_off_refuses_unknown_tenant(self, schema, data, tmp_path):
        config = make_config(schema, tmp_path, auto_register=False)

        def drive(port):
            client = ServiceClient(port=port)
            with pytest.raises(ServiceError) as excinfo:
                client.submit("stranger", data.records[:5])
            assert excinfo.value.code == "unknown_tenant"
            # Explicit registration then works.
            client.register_tenant("known")
            client.open_collection("known", "c")
            response = client.submit("known", data.records[:5], collection="c")
            return response

        assert run_service(config, drive)["accepted"] == 5

    def test_torn_spool_recovery_resumes_consistently(self, schema, data, tmp_path):
        """Crash mid-append: a torn column plus a stale ledger ack must
        recover to a consistent prefix and keep the stream bit-exact."""
        config = make_config(schema, tmp_path)

        def drive(port):
            ServiceClient(port=port).submit("acme", data.records[:250])

        run_service(config, drive)
        spool_path = tmp_path / "state" / "acme" / "default.frd"
        torn = sorted(spool_path.parent.glob("default.frd.col*.spool"))[-1]
        torn.write_bytes(torn.read_bytes()[:-1])

        def resume(port):
            client = ServiceClient(port=port)
            status = client.ledger("acme")["ledger"]["collections"]["default"]
            # Recovery dropped the torn tail row.
            assert status["records"] == 249
            client.submit("acme", data.records[249:])
            return client.ledger("acme")["ledger"]["collections"]["default"]

        status = run_service(make_config(schema, tmp_path), resume)
        assert status["records"] == 400
        seed = derive_collection_seed(config.seed, "acme", "default")
        offline = offline_perturb(schema, data, seed)
        with FrdSpool(schema, spool_path) as spool:
            np.testing.assert_array_equal(
                spool.records(0, 400), offline.records
            )


# ----------------------------------------------------------------------
# exactly-once submission
# ----------------------------------------------------------------------


class TestExactlyOnce:
    def test_keyed_submit_replays_identically(self, schema, data, tmp_path):
        config = make_config(schema, tmp_path)

        def drive(port):
            client = ServiceClient(port=port)
            first = client.submit(
                "acme", data.records[:30], idempotency_key="sub-1",
                return_records=True,
            )
            again = client.submit(
                "acme", data.records[:30], idempotency_key="sub-1",
                return_records=True,
            )
            ledger = client.ledger("acme")["ledger"]
            client.close()
            return first, again, ledger

        first, again, ledger = run_service(config, drive)
        assert "replayed" not in first
        assert again["replayed"] is True
        assert (again["start"], again["stop"]) == (first["start"], first["stop"])
        # The replay re-reads the same perturbed rows from the spool.
        assert again["records"] == first["records"]
        # Rows were spooled exactly once.
        assert ledger["collections"]["default"]["records"] == 30

    def test_key_reuse_with_different_payload_is_409(
        self, schema, data, tmp_path
    ):
        config = make_config(schema, tmp_path)

        def drive(port):
            client = ServiceClient(port=port)
            client.submit("acme", data.records[:10], idempotency_key="k")
            with pytest.raises(ServiceError) as excinfo:
                client.submit("acme", data.records[10:30], idempotency_key="k")
            client.close()
            return excinfo.value

        error = run_service(config, drive)
        assert error.code == "idempotency_conflict"
        assert error.status == 409

    def test_journal_survives_restart(self, schema, data, tmp_path):
        config = make_config(schema, tmp_path)

        def first_run(port):
            client = ServiceClient(port=port)
            response = client.submit(
                "acme", data.records[:25], idempotency_key="boot-1"
            )
            client.close()
            return response

        def second_run(port):
            client = ServiceClient(port=port)
            response = client.submit(
                "acme", data.records[:25], idempotency_key="boot-1"
            )
            status = client.ledger("acme")["ledger"]["collections"]["default"]
            client.close()
            return response, status

        first = run_service(config, first_run)
        again, status = run_service(make_config(schema, tmp_path), second_run)
        assert again["replayed"] is True
        assert (again["start"], again["stop"]) == (first["start"], first["stop"])
        assert status["records"] == 25

    def test_keyed_open_collection_charges_once(self, schema, tmp_path):
        config = make_config(schema, tmp_path)

        def drive(port):
            client = ServiceClient(port=port)
            first = client.open_collection(
                "acme", "c1", idempotency_key="open-1"
            )
            again = client.open_collection(
                "acme", "c1", idempotency_key="open-1"
            )
            summary = client.ledger("acme")["ledger"]
            client.close()
            return first, again, summary

        first, again, summary = run_service(config, drive)
        assert again["replayed"] is True
        assert again["seed"] == first["seed"]
        assert list(summary["collections"]) == ["c1"]
        # Replay did not double-charge the cumulative statement (a
        # double charge would square the amplification to 361).
        assert summary["cumulative"]["amplification"] == pytest.approx(GAMMA)

    def test_keyed_stateless_perturb_replays(self, schema, data, tmp_path):
        config = make_config(schema, tmp_path)

        def drive(port):
            client = ServiceClient(port=port)
            first = client.perturb(
                data.records[:20], seed=11, idempotency_key="p-1"
            )
            again = client.perturb(
                data.records[:20], seed=11, idempotency_key="p-1"
            )
            with pytest.raises(ServiceError) as excinfo:
                client.perturb(
                    data.records[:20], seed=12, idempotency_key="p-1"
                )
            client.close()
            return first, again, excinfo.value

        first, again, error = run_service(config, drive)
        assert again["replayed"] is True
        assert again["records"] == first["records"]
        assert error.code == "idempotency_conflict"

    def test_concurrent_duplicate_keys_spool_once(self, schema, data, tmp_path):
        """Two clients racing the same key (a blackholed response plus an
        eager retry) must share one batch slot, not spool rows twice."""
        config = make_config(schema, tmp_path, max_latency=0.2)

        def drive(port):
            rows = data.records[:15]
            results = []

            def submit():
                client = ServiceClient(port=port)
                results.append(
                    client.submit("acme", rows, idempotency_key="race")
                )
                client.close()

            threads = [threading.Thread(target=submit) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            client = ServiceClient(port=port)
            status = client.ledger("acme")["ledger"]["collections"]["default"]
            client.close()
            return results, status

        results, status = run_service(config, drive)
        assert len(results) == 4
        spans = {(r["start"], r["stop"]) for r in results}
        assert spans == {(0, 15)}
        assert status["records"] == 15


# ----------------------------------------------------------------------
# group commit at the default hold
# ----------------------------------------------------------------------


class TestGroupCommit:
    def test_concurrent_keyed_clients_coalesce_at_the_default_hold(
        self, schema, tmp_path, monkeypatch
    ):
        """Sixteen keyed clients against the zero hold: submits that
        arrive while a batch perturbs and fsyncs flush together as the
        next batch, every key is journaled once, and the spool is the
        offline perturbation of the arrival order.

        The first batch stalls until every client's first submit is on
        the wire, so those submits queue behind it whatever the host's
        timing.
        """
        import http.client

        import repro.service.server as server_module

        n_clients, n_requests, rows = 16, 3, 25
        config = make_config(schema, tmp_path)
        assert config.max_latency == 0.0
        records = generate_census(n_clients * n_requests * rows, seed=8).records
        all_sent = threading.Event()
        sent = []
        sizes = []
        lock = threading.Lock()
        send = http.client.HTTPConnection.request
        process = server_module.CollectionRuntime._process_batch

        def counted_send(connection, method, url, *args, **kwargs):
            send(connection, method, url, *args, **kwargs)
            if url == "/v1/submit":
                with lock:
                    sent.append(url)
                    if len(sent) >= n_clients:
                        all_sent.set()

        def stalled_process(runtime, batch, parts):
            all_sent.wait(timeout=30)
            sizes.append(len(parts))
            return process(runtime, batch, parts)

        monkeypatch.setattr(http.client.HTTPConnection, "request", counted_send)
        monkeypatch.setattr(
            server_module.CollectionRuntime, "_process_batch", stalled_process
        )

        def drive(port):
            with ServiceClient(port=port) as client:
                client.open_collection("acme")
            start = threading.Barrier(n_clients)
            responses, errors = [], []

            def client_loop(index):
                try:
                    with ServiceClient(port=port) as client:
                        client.health()
                        start.wait(timeout=30)
                        for j in range(n_requests):
                            lo = (index * n_requests + j) * rows
                            key = f"c{index}-{j}"
                            reply = client.submit(
                                "acme", records[lo : lo + rows], idempotency_key=key
                            )
                            responses.append((key, lo, reply))
                except Exception as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)

            threads = [
                threading.Thread(target=client_loop, args=(index,))
                for index in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive(), "a client never finished"
            return responses, errors

        responses, errors = run_service(config, drive)
        n_submits = n_clients * n_requests
        assert not errors, errors[:3]
        assert len(responses) == n_submits
        assert sum(sizes) == n_submits
        assert len(sizes) < n_submits
        ledger = LedgerStore(config.data_dir).load("acme")
        assert sorted(ledger.journal) == sorted(key for key, _, _ in responses)
        for key, _, reply in responses:
            journaled = ledger.journal[key]["response"]
            assert (journaled["start"], journaled["stop"]) == (
                reply["start"],
                reply["stop"],
            )
        arrival = sorted((reply["start"], lo) for _, lo, reply in responses)
        assert [start for start, _ in arrival] == list(range(0, n_submits * rows, rows))
        arrived = np.concatenate([records[lo : lo + rows] for _, lo in arrival])
        offline = offline_perturb(
            schema,
            CategoricalDataset(schema, arrived),
            ledger.collections["default"].seed,
        )
        with FrdSpool(schema, tmp_path / "state" / "acme" / "default.frd") as spool:
            np.testing.assert_array_equal(
                spool.records(0, n_submits * rows), offline.records
            )


# ----------------------------------------------------------------------
# admission control and load shedding
# ----------------------------------------------------------------------


class TestAdmissionControl:
    def test_inflight_limit_sheds_with_retry_after(self, schema, data, tmp_path):
        config = make_config(schema, tmp_path, max_inflight=0)

        def drive(port):
            client = ServiceClient(port=port)
            with pytest.raises(ServiceOverloadedError) as excinfo:
                client.submit("acme", data.records[:5])
            health = client.health()
            client.close()
            return excinfo.value, health

        error, health = run_service(config, drive)
        assert error.status == 429
        assert error.code == "overloaded"
        assert error.details["reason"] == "max_inflight"
        assert error.retry_after is not None and error.retry_after > 0
        admission = health["admission"]
        assert admission["shed_inflight"] == 1
        assert admission["shed_total"] == 1
        assert admission["max_inflight"] == 0

    def test_shed_response_carries_retry_after_header(self, schema, tmp_path):
        config = make_config(schema, tmp_path, max_inflight=0)

        def drive(port):
            import http.client

            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            conn.request(
                "POST",
                "/v1/tenants",
                body=json.dumps({"tenant": "acme"}).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            header = response.getheader("Retry-After")
            status = response.status
            response.read()
            conn.close()
            return status, header

        status, header = run_service(config, drive)
        assert status == 429
        assert header is not None and float(header) > 0

    def test_gets_pass_even_when_overloaded(self, schema, tmp_path):
        config = make_config(schema, tmp_path, max_inflight=0)

        def drive(port):
            client = ServiceClient(port=port)
            health = client.health()
            ledger = client.ledger()
            client.close()
            return health, ledger

        health, ledger = run_service(config, drive)
        assert health["status"] == "ok"
        assert ledger["tenants"] == []

    def test_queued_rows_limit_sheds_submissions(self, schema, data, tmp_path):
        config = make_config(
            schema, tmp_path, max_latency=0.5, max_queued_rows=1
        )

        def drive(port):
            first_client = ServiceClient(port=port)
            probe = ServiceClient(port=port)
            outcome = {}

            def first():
                outcome["first"] = first_client.submit(
                    "acme", data.records[:5]
                )

            thread = threading.Thread(target=first)
            thread.start()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if probe.health()["admission"]["queued_rows"] >= 1:
                    break
                time.sleep(0.005)
            else:
                raise AssertionError("first submission never queued")
            with pytest.raises(ServiceOverloadedError) as excinfo:
                probe.submit("acme", data.records[5:10])
            thread.join()
            admission = probe.health()["admission"]
            first_client.close()
            probe.close()
            return outcome["first"], excinfo.value, admission

        first, error, admission = run_service(config, drive)
        assert first["accepted"] == 5
        assert error.details["reason"] == "max_queued_rows"
        assert admission["shed_queued"] >= 1
        # The shed happened before any state change: only the admitted
        # submission's rows exist.
        assert first["spooled"] == 5

    def test_retrying_clients_under_overload_land_every_row_once(
        self, schema, data, tmp_path
    ):
        """Sixteen retrying clients against ``max_inflight=4``: the
        daemon sheds with 429s, yet every keyed submission is charged
        exactly once."""
        config = make_config(schema, tmp_path, max_inflight=4, max_latency=0.02)
        n_clients, n_requests = 16, 6

        def drive(port):
            accepted, errors = [], []

            def client_loop(index):
                retry = RetryPolicy(
                    max_attempts=20,
                    base_delay=0.01,
                    max_delay=0.25,
                    jitter=0.5,
                    deadline=120.0,
                    seed=index,
                )
                try:
                    with ServiceClient(port=port, retry=retry) as client:
                        for _ in range(n_requests):
                            accepted.append(
                                client.submit("acme", data.records)["accepted"]
                            )
                except Exception as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)

            threads = [
                threading.Thread(target=client_loop, args=(index,))
                for index in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180)
                assert not thread.is_alive(), "a client never finished"
            with ServiceClient(port=port) as client:
                return accepted, errors, client.health()["admission"]

        accepted, errors, admission = run_service(config, drive)
        total = n_clients * n_requests * data.n_records
        assert not errors, errors[:3]
        assert sum(accepted) == total
        assert admission["shed_total"] > 0
        ledger = LedgerStore(config.data_dir).load("acme")
        assert ledger.collections["default"].records == total


# ----------------------------------------------------------------------
# client retry policy and typed transport errors
# ----------------------------------------------------------------------


def _silent_listener():
    """A bound socket that accepts connections but never responds."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    accepted = []
    stop = threading.Event()

    def accept_loop():
        listener.settimeout(0.05)
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            except OSError:
                break
            accepted.append(conn)

    thread = threading.Thread(target=accept_loop, daemon=True)
    thread.start()

    def close():
        stop.set()
        thread.join()
        for conn in accepted:
            conn.close()
        listener.close()

    return listener.getsockname()[1], accepted, close


class TestRetryPolicy:
    def test_backoff_schedule_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.5, seed=42
        )
        delays_a = [policy.delay(k, random.Random(42)) for k in range(1, 6)]
        delays_b = [policy.delay(k, random.Random(42)) for k in range(1, 6)]
        assert delays_a == delays_b  # same seed, same schedule
        rng = random.Random(42)
        for attempt, delay in enumerate(delays_a, start=1):
            nominal = min(0.5, 0.1 * 2.0 ** (attempt - 1))
            assert nominal / 2 <= delay <= nominal

    def test_rejects_bad_parameters(self):
        with pytest.raises(ServiceError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ServiceError):
            RetryPolicy(jitter=1.5)

    def test_connection_refused_maps_to_unavailable(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        listener.close()  # nothing listens here now
        client = ServiceClient(port=port, timeout=1.0)
        with pytest.raises(ServiceUnavailableError) as excinfo:
            client.health()
        assert excinfo.value.code == "unavailable"
        assert excinfo.value.status == 503

    def test_socket_timeout_maps_to_timeout_error(self):
        port, _accepted, close = _silent_listener()
        try:
            client = ServiceClient(port=port, timeout=0.1)
            with pytest.raises(ServiceTimeoutError) as excinfo:
                client.health()
            assert excinfo.value.code == "timeout"
            assert excinfo.value.status == 504
        finally:
            close()

    def test_unkeyed_write_is_never_retried(self, schema, data):
        port, accepted, close = _silent_listener()
        try:
            client = ServiceClient(port=port, timeout=0.15)
            with pytest.raises(ServiceTimeoutError):
                client.submit("acme", data.records[:3])
            writes = len(accepted)
            # GETs are idempotent: the reconnect fallback tries twice.
            with pytest.raises(ServiceTimeoutError):
                client.health()
            reads = len(accepted) - writes
        finally:
            close()
        assert writes == 1
        assert reads == 2

    def test_deadline_exceeded_wraps_last_error(self):
        port, _accepted, close = _silent_listener()
        try:
            client = ServiceClient(
                port=port,
                timeout=5.0,
                retry=RetryPolicy(
                    max_attempts=50,
                    base_delay=0.0,
                    jitter=0.0,
                    deadline=0.3,
                    attempt_timeout=0.05,
                ),
            )
            start = time.monotonic()
            with pytest.raises(DeadlineExceededError) as excinfo:
                client.health()
            elapsed = time.monotonic() - start
        finally:
            close()
        assert excinfo.value.attempts >= 2
        assert elapsed < 2.0  # deadline cut the 50-attempt budget short

    def test_policy_retries_sheds_then_raises_overloaded(
        self, schema, data, tmp_path
    ):
        config = make_config(schema, tmp_path, max_inflight=0)

        def drive(port):
            client = ServiceClient(
                port=port,
                retry=RetryPolicy(
                    max_attempts=3, base_delay=0.001, jitter=0.0, seed=3
                ),
            )
            with pytest.raises(ServiceOverloadedError):
                client.submit("acme", data.records[:5])
            admission = client.health()["admission"]
            client.close()
            return admission

        admission = run_service(config, drive)
        # Every attempt of the 3-attempt budget was shed and counted.
        assert admission["shed_inflight"] == 3

    def test_policy_recovers_once_load_clears(self, schema, data, tmp_path):
        """A shed submission retried under the policy lands exactly once
        when capacity returns (429 -> backoff -> 200)."""
        config = make_config(
            schema, tmp_path, max_latency=0.15, max_queued_rows=1
        )

        def drive(port):
            blocker = ServiceClient(port=port)
            retrier = ServiceClient(
                port=port,
                retry=RetryPolicy(max_attempts=8, base_delay=0.01, seed=9),
            )
            outcome = {}

            def first():
                outcome["first"] = blocker.submit("acme", data.records[:5])

            thread = threading.Thread(target=first)
            thread.start()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if retrier.health()["admission"]["queued_rows"] >= 1:
                    break
                time.sleep(0.002)
            response = retrier.submit("acme", data.records[5:12])
            thread.join()
            status = retrier.ledger("acme")["ledger"]["collections"]["default"]
            blocker.close()
            retrier.close()
            return outcome["first"], response, status

        first, response, status = run_service(config, drive)
        assert first["accepted"] == 5
        assert response["accepted"] == 7
        assert status["records"] == 12

    def test_auto_keys_only_under_active_policy(self):
        assert ServiceClient()._auto_key() is None
        keyed = ServiceClient(retry=RetryPolicy())
        first, second = keyed._auto_key(), keyed._auto_key()
        assert first and second and first != second

    def test_non_json_error_body_is_bad_gateway(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def serve_once():
            conn, _ = listener.accept()
            conn.recv(65536)
            conn.sendall(
                b"HTTP/1.1 500 Internal Server Error\r\n"
                b"Content-Length: 9\r\n"
                b"Connection: close\r\n\r\nnot json!"
            )
            conn.close()

        thread = threading.Thread(target=serve_once, daemon=True)
        thread.start()
        try:
            client = ServiceClient(port=port, timeout=2.0)
            with pytest.raises(ServiceError) as excinfo:
                client.health()
            assert excinfo.value.code == "bad_gateway"
            assert excinfo.value.status == 502
        finally:
            thread.join()
            listener.close()


# ----------------------------------------------------------------------
# shutdown drain and protocol-level refusals
# ----------------------------------------------------------------------


class TestServerShutdown:
    def test_stop_closes_idle_keepalive_immediately(self, schema, tmp_path):
        """An idle keep-alive connection must not hold shutdown for the
        drain deadline."""
        config = make_config(schema, tmp_path, drain_deadline=30.0)

        async def main():
            server = ServiceServer(PerturbationService(config), port=0)
            port = await server.start()
            loop = asyncio.get_running_loop()

            def connect_idle():
                client = ServiceClient(port=port)
                client.health()  # leaves a live keep-alive socket behind
                return client

            client = await loop.run_in_executor(None, connect_idle)
            start = time.monotonic()
            await server.stop()
            elapsed = time.monotonic() - start
            client.close()
            return elapsed

        assert asyncio.run(main()) < 5.0

    def test_stop_drains_inflight_submission(self, schema, data, tmp_path):
        """A submission waiting on a latency flush when stop() begins
        still gets its rows spooled and its response written."""
        config = make_config(
            schema, tmp_path, max_latency=0.3, drain_deadline=10.0
        )

        async def main():
            server = ServiceServer(PerturbationService(config), port=0)
            port = await server.start()
            loop = asyncio.get_running_loop()

            def submit():
                client = ServiceClient(port=port)
                try:
                    return client.submit("acme", data.records[:8])
                finally:
                    client.close()

            pending = loop.run_in_executor(None, submit)
            while server.service.queued_rows() == 0:
                await asyncio.sleep(0.005)
            await server.stop()
            return await pending

        response = asyncio.run(main())
        assert response["accepted"] == 8
        assert response["spooled"] == 8

    def test_oversized_content_length_is_structured_413(self, schema, tmp_path):
        from repro.service.server import MAX_BODY_BYTES

        config = make_config(schema, tmp_path)

        def drive(port):
            import http.client

            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            conn.putrequest("POST", "/v1/submit")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            response = conn.getresponse()
            status = response.status
            body = json.loads(response.read())
            header = response.getheader("Connection")
            conn.close()
            return status, body, header

        status, body, connection = run_service(config, drive)
        assert status == 413
        assert body["error"]["code"] == "body_too_large"
        # Framing downstream of a protocol error is suspect: close.
        assert connection == "close"


# ----------------------------------------------------------------------
# sequential stream (the determinism primitive)
# ----------------------------------------------------------------------


class TestSequentialStream:
    def test_any_partition_is_bit_identical(self, schema, data):
        engine = from_spec(MechanismSpec("det-gd", {"gamma": GAMMA}), schema)
        offline = engine.perturb(data, seed=99).records
        for edges in ([0, 400], [0, 1, 400], [0, 123, 124, 300, 400]):
            stream = SequentialPerturbStream(engine, seed=99)
            parts = [
                stream.perturb_batch(data.records[lo:hi])
                for lo, hi in zip(edges, edges[1:])
            ]
            np.testing.assert_array_equal(
                np.concatenate(parts, axis=0), offline
            )

    def test_skip_records_fast_forwards_exactly(self, schema, data):
        engine = from_spec(MechanismSpec("det-gd", {"gamma": GAMMA}), schema)
        offline = engine.perturb(data, seed=99).records
        stream = SequentialPerturbStream(engine, seed=99)
        stream.skip_records(250)
        tail = stream.perturb_batch(data.records[250:])
        np.testing.assert_array_equal(tail, offline[250:])
