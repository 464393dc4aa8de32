"""Chaos lane: network faults between a retrying client and a live daemon.

Each test starts a real ``frapp serve`` subprocess, routes a
:class:`~repro.service.client.ServiceClient` (armed with a
:class:`~repro.RetryPolicy`) through the :class:`tests.chaosproxy.ChaosProxy`,
and walks it through a deterministic fault gauntlet -- connection
resets, torn responses, blackholed acknowledgements, silent drops and
latency spikes.  The contract under proof:

* every keyed submission eventually succeeds despite the faults;
* the daemon's spool is **byte-identical** to an undisturbed run
  (exactly-once application -- no duplicated or reordered rows);
* the tenant ledger acknowledges each batch exactly once, with one
  journal entry per idempotency key.

The final test crosses chaos with the SIGKILL harness: the daemon dies
*after* journaling and spooling a keyed submission but *before* the
acknowledgement leaves the socket (the ``service:pre-respond``
barrier), and a restarted daemon must replay -- not re-apply -- the
same key.

These tests fork daemons and sleep through retry backoff, so they are
marked ``chaos`` and run in their own CI lane.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from chaosproxy import ChaosProxy
from faultinject import clear_reached, fault_env, hold, kill_at, release
from repro import RetryPolicy
from repro.data import generate_census
from repro.service.client import ServiceClient
from repro.service.ledger import LedgerStore

pytestmark = pytest.mark.chaos

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

SERVE_ARGS = (
    "serve",
    "--port",
    "0",
    "--schema",
    "census",
    "--seed",
    "4242",
)

#: Patient enough to cross the longest gauntlet (five consecutive bad
#: connections), deterministic jitter, 1s per-attempt timeout so a
#: blackholed acknowledgement fails fast.
RETRY = RetryPolicy(
    max_attempts=10,
    base_delay=0.02,
    max_delay=0.25,
    jitter=0.5,
    deadline=60.0,
    attempt_timeout=1.0,
    seed=7,
)

#: Named fault schedules, consumed one entry per proxy connection.
SCHEDULES = {
    "reset": ["reset", "reset"],
    "drop": ["drop"],
    "blackhole": ["blackhole"],
    "torn": ["torn"],
    "delay": ["delay"],
    "gauntlet": ["reset", "torn", "blackhole", "drop", "delay"],
}


def start_daemon(data_dir, env) -> tuple[subprocess.Popen, int]:
    env = dict(env)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.cli", *SERVE_ARGS,
         "--data-dir", str(data_dir)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = process.stdout.readline()
    assert "listening on" in line, (line, process.stderr.read())
    return process, int(line.rsplit(":", 1)[1])


def stop_daemon(daemon: subprocess.Popen) -> None:
    if daemon.poll() is None:
        daemon.send_signal(signal.SIGINT)
        try:
            daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()


def spool_bytes(data_dir) -> dict:
    return {
        str(p.relative_to(data_dir)): p.read_bytes()
        for p in sorted(Path(data_dir).rglob("*.spool"))
    }


def batches_of(n_records: int = 90, n_batches: int = 3) -> list[list]:
    rows = generate_census(n_records, seed=9).records.tolist()
    step = n_records // n_batches
    return [rows[i * step:(i + 1) * step] for i in range(n_batches)]


def reference_run(data_dir, batches) -> dict:
    """Spool bytes of a never-disturbed daemon fed ``batches`` once each."""
    daemon, port = start_daemon(data_dir, os.environ)
    try:
        with ServiceClient(port=port) as client:
            client.register_tenant("acme")
            client.open_collection("acme", "survey")
            for batch in batches:
                client.submit("acme", batch, collection="survey")
    finally:
        stop_daemon(daemon)
    reference = spool_bytes(data_dir)
    assert reference  # the daemon actually spooled something
    return reference


class TestChaosGauntlet:
    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_keyed_submissions_survive_and_spool_bit_identically(
        self, tmp_path, name
    ):
        batches = batches_of()
        total = sum(len(batch) for batch in batches)
        reference = reference_run(tmp_path / "ref-data", batches)

        chaos_dir = tmp_path / "chaos-data"
        daemon, port = start_daemon(chaos_dir, os.environ)
        try:
            # Setup goes direct to the daemon; only the keyed submits
            # walk the fault gauntlet.
            with ServiceClient(port=port) as client:
                client.register_tenant("acme")
                client.open_collection("acme", "survey")
            with ChaosProxy(port, SCHEDULES[name]) as proxy:
                with ServiceClient(
                    port=proxy.port, timeout=5.0, retry=RETRY
                ) as client:
                    accepted = [
                        client.submit("acme", batch, collection="survey")
                        for batch in batches
                    ]
                assert all(
                    ack["accepted"] == len(batch)
                    for ack, batch in zip(accepted, batches)
                )
                # Every scheduled fault was actually inflicted.
                assert proxy.served[: len(SCHEDULES[name])] == SCHEDULES[name]
        finally:
            stop_daemon(daemon)

        # Exactly-once: bytes on disk match the undisturbed run, the
        # ledger charged each batch once, one journal entry per key.
        assert spool_bytes(chaos_dir) == reference
        ledger = LedgerStore(chaos_dir).load("acme")
        assert ledger.collections["survey"].records == total
        assert len(ledger.journal) == len(batches)

    def test_duplicate_submission_with_same_key_is_replayed_not_reapplied(
        self, tmp_path
    ):
        batches = batches_of()
        reference = reference_run(tmp_path / "ref-data", batches)

        chaos_dir = tmp_path / "chaos-data"
        daemon, port = start_daemon(chaos_dir, os.environ)
        try:
            with ServiceClient(port=port) as client:
                client.register_tenant("acme")
                client.open_collection("acme", "survey")
                acks = [
                    client.submit(
                        "acme",
                        batch,
                        collection="survey",
                        idempotency_key=f"batch-{i}",
                    )
                    for i, batch in enumerate(batches)
                ]
                # A blackholed ack looks exactly like this to the
                # client: the request applied, the response lost, the
                # same key resubmitted verbatim.
                replays = [
                    client.submit(
                        "acme",
                        batch,
                        collection="survey",
                        idempotency_key=f"batch-{i}",
                    )
                    for i, batch in enumerate(batches)
                ]
        finally:
            stop_daemon(daemon)

        for ack, replay in zip(acks, replays):
            assert replay.pop("replayed") is True
            assert "replayed" not in ack
            assert replay == ack
        assert spool_bytes(chaos_dir) == reference


class TestKilledBeforeAcknowledgement:
    def test_restarted_daemon_replays_the_journaled_key(self, tmp_path):
        batches = batches_of()
        total = sum(len(batch) for batch in batches)
        reference = reference_run(tmp_path / "ref-data", batches)

        faults = tmp_path / "faults"
        chaos_dir = tmp_path / "chaos-data"
        daemon, port = start_daemon(chaos_dir, fault_env(faults))
        try:
            with ServiceClient(port=port) as client:
                client.register_tenant("acme")
                client.open_collection("acme", "survey")
                for i, batch in enumerate(batches[:-1]):
                    client.submit(
                        "acme",
                        batch,
                        collection="survey",
                        idempotency_key=f"batch-{i}",
                    )
            # The last batch spools and journals, then the daemon dies
            # frozen one instruction before writing the response.  The
            # setup submits already crossed the barrier, so drop their
            # marker before arming it.
            clear_reached(faults, "service:pre-respond")
            hold(faults, "service:pre-respond")
            failed = []

            def doomed_submit():
                try:
                    with ServiceClient(port=port, timeout=30) as client:
                        client.submit(
                            "acme",
                            batches[-1],
                            collection="survey",
                            idempotency_key="batch-final",
                        )
                except Exception as error:  # noqa: BLE001 - daemon dies mid-request
                    failed.append(error)

            submitter = threading.Thread(target=doomed_submit)
            submitter.start()
            kill_at(daemon, faults, "service:pre-respond")
            submitter.join(timeout=30)
            assert failed, "the unacknowledged submit must fail client-side"
        finally:
            release(faults, "service:pre-respond")
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()

        # The journal committed with the spool: a client retrying the
        # same key against a restarted daemon gets a replay, never a
        # second application.
        daemon, port = start_daemon(chaos_dir, os.environ)
        try:
            with ServiceClient(port=port) as client:
                ack = client.submit(
                    "acme",
                    batches[-1],
                    collection="survey",
                    idempotency_key="batch-final",
                )
        finally:
            stop_daemon(daemon)

        assert ack["replayed"] is True
        assert ack["accepted"] == len(batches[-1])
        assert spool_bytes(chaos_dir) == reference
        ledger = LedgerStore(chaos_dir).load("acme")
        assert ledger.collections["survey"].records == total
        assert "batch-final" in ledger.journal
