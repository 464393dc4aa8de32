"""SIGKILL crash-recovery: processes die at fault barriers, nothing is lost.

Every test here drives a real child process into a held barrier (see
``tests/faultinject.py`` / :mod:`repro.faultpoints`), delivers SIGKILL
with the victim frozen at an exact interior point of a write sequence,
and then proves the durability contract: a rerun recovers the store /
spool state and produces results identical to a run that was never
disturbed.

These tests fork Python subprocesses and kill them, so they are marked
``faultinject`` and run in their own CI lane; the whole module still
completes in seconds and is safe to run locally.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from faultinject import (
    clear_reached,
    fault_env,
    hold,
    kill_at,
    release,
    wait_reached,
)
from repro.data import census_schema, generate_census
from repro.data.backing import column_dtypes
from repro.data.io import FrdSpool
from repro.experiments.config import ExperimentConfig
from repro.experiments.orchestrator import (
    DatasetSpec,
    Orchestrator,
    comparison_cells,
)
from repro.faultpoints import LEDGER_PRE_COMMIT
from repro.store import ResultStore

pytestmark = pytest.mark.faultinject

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def launch(script: str, *argv: str, env: dict) -> subprocess.Popen:
    """Start a victim Python process with ``src`` importable."""
    env = dict(env)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", script, *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def grid_for(n_records: int = 1200):
    spec = DatasetSpec.from_name("CENSUS", n_records=n_records)
    config = ExperimentConfig(min_support=0.05, mechanisms=("det-gd",))
    return comparison_cells(spec, config)[1]


def strip_seconds(result):
    """Comparable form of a decoded cell (wall-clock timing dropped)."""
    if isinstance(result, dict):
        return sorted((k, repr(v)) for k, v in result.items() if k != "seconds")
    return sorted((length, repr(level)) for length, level in result.by_length.items())


VICTIM_HOST = """
import sys
from repro.experiments.config import ExperimentConfig
from repro.experiments.orchestrator import (
    DatasetSpec, Orchestrator, comparison_cells,
)
from repro.store import ResultStore

store_root, n = sys.argv[1], int(sys.argv[2])
spec = DatasetSpec.from_name("CENSUS", n_records=n)
config = ExperimentConfig(min_support=0.05, mechanisms=("det-gd",))
cells = comparison_cells(spec, config)[1]
Orchestrator(store=ResultStore(store_root), fingerprint="fp").run(cells)
"""


class TestOrchestratorWorkerKilledMidCell:
    def test_rerun_adopts_the_committed_cell(self, tmp_path):
        grid = grid_for()
        reference = {
            name: strip_seconds(result)
            for name, result in Orchestrator(
                store=ResultStore(tmp_path / "ref"), fingerprint="fp"
            )
            .run(grid)
            .items()
        }

        faults = tmp_path / "faults"
        store_root = tmp_path / "store"
        # Freeze (then kill) the victim inside the mechanism cell: its
        # exact cell is committed, its mechanism cell never is.
        hold(faults, "cell:mechanism")
        victim = launch(VICTIM_HOST, str(store_root), "1200", env=fault_env(faults))
        try:
            kill_at(victim, faults, "cell:mechanism")
        finally:
            release(faults, "cell:mechanism")

        store = ResultStore(store_root)
        keys = Orchestrator(store=store, fingerprint="fp")
        assert store.get(keys.key_for(grid[0])) is not None
        assert store.get(keys.key_for(grid[1])) is None

        rerun = Orchestrator(store=store, fingerprint="fp")
        results = rerun.run(grid)
        assert {n: strip_seconds(r) for n, r in results.items()} == reference
        # The rerun adopted the victim's exact cell and recomputed only
        # the torn mechanism cell.
        assert rerun.stats.hits == 1
        assert rerun.stats.misses == 1


VICTIM_SPOOL = """
import sys
from repro.data import generate_census
from repro.data.io import FrdSpool

path, seed = sys.argv[1], int(sys.argv[2])
data = generate_census(60, seed=seed)
spool = FrdSpool(data.schema, path)
spool.append(data.records[40:])
"""


class TestSpoolAppendTorn:
    def test_torn_batch_is_dropped_and_reappend_is_byte_identical(self, tmp_path):
        seed = 77
        data = generate_census(60, seed=seed)
        schema = data.schema

        reference = tmp_path / "ref" / "ref.frd"
        with_spool = FrdSpool(schema, reference)
        with_spool.append(data.records[:40])
        with_spool.append(data.records[40:])
        with_spool.close()

        target = tmp_path / "torn" / "torn.frd"
        first = FrdSpool(schema, target)
        first.append(data.records[:40])
        first.close()

        faults = tmp_path / "faults"
        hold(faults, "spool:mid-append")
        victim = launch(VICTIM_SPOOL, str(target), str(seed), env=fault_env(faults))
        try:
            kill_at(victim, faults, "spool:mid-append")
        finally:
            release(faults, "spool:mid-append")

        # The victim wrote column 0 of the torn batch and nothing else:
        # the column files disagree until recovery truncates to the
        # 40-record complete prefix.
        sizes = {
            p.name: p.stat().st_size for p in target.parent.glob("*.spool")
        }
        assert len(set(sizes.values())) > 1, sizes

        recovered = FrdSpool(schema, target)
        assert recovered.n_records == 40
        np.testing.assert_array_equal(
            recovered.records(0, 40), data.records[:40]
        )
        recovered.append(data.records[40:])
        recovered.close()

        for j in range(schema.n_attributes):
            ref_col = (reference.parent / f"ref.frd.col{j}.spool").read_bytes()
            got_col = (target.parent / f"torn.frd.col{j}.spool").read_bytes()
            assert got_col == ref_col


VICTIM_PUT = """
import sys
import numpy as np
from repro.store import ResultStore

ResultStore(sys.argv[1]).put(
    sys.argv[2],
    {"answer": 42},
    arrays={"counts": np.arange(5, dtype=float)},
    meta={"fingerprint": "fp"},
)
"""


class TestStoreCommitTorn:
    def test_orphan_npz_is_never_served_and_gc_reclaims_it(self, tmp_path):
        root, key = tmp_path / "store", "deadbeef" * 8
        faults = tmp_path / "faults"
        hold(faults, "store:mid-commit")
        victim = launch(VICTIM_PUT, str(root), key, env=fault_env(faults))
        try:
            kill_at(victim, faults, "store:mid-commit")
        finally:
            release(faults, "store:mid-commit")

        store = ResultStore(root)
        assert (store.objects_dir / f"{key}.npz").exists()
        assert not (store.objects_dir / f"{key}.json").exists()
        assert store.get(key) is None  # the torn commit never hits
        assert store.gc(keep_fingerprint="fp") == 1
        assert not (store.objects_dir / f"{key}.npz").exists()

        # Recomputing commits cleanly and round-trips bit-identically.
        store.put(
            key,
            {"answer": 42},
            arrays={"counts": np.arange(5, dtype=float)},
            meta={"fingerprint": "fp"},
        )
        payload, arrays = store.get(key)
        assert payload == {"answer": 42}
        np.testing.assert_array_equal(arrays["counts"], np.arange(5, dtype=float))


SERVE_ARGS = (
    "serve",
    "--port",
    "0",
    "--schema",
    "census",
    "--seed",
    "4242",
)


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


def spool_bytes(data_dir) -> dict:
    return {
        str(p.relative_to(data_dir)): p.read_bytes()
        for p in sorted(Path(data_dir).rglob("*.spool"))
    }


def kill_mid_batch_and_resubmit(tmp_path, barrier: str, spooled_before_kill: int):
    """SIGKILL a daemon at ``barrier`` in batch B, after batch A committed.

    ``spooled_before_kill`` is how many of B's rows column 1 holds when
    the daemon dies.  The ledger must acknowledge batch A alone, and a
    restarted daemon given batch B again must leave spools
    byte-identical to an undisturbed run.
    """
    from repro.service.client import ServiceClient
    from repro.service.ledger import LedgerStore

    data = generate_census(80, seed=9)
    batch_a, batch_b = data.records[:48].tolist(), data.records[48:].tolist()

    def drive(client_port, batches, fresh=False):
        with ServiceClient(port=client_port) as client:
            if fresh:
                client.register_tenant("acme")
                client.open_collection("acme", "survey")
            for batch in batches:
                client.submit("acme", batch, collection="survey")

    # Undisturbed reference: one daemon, both batches acknowledged.
    ref_dir = tmp_path / "ref-data"
    daemon, port = start_daemon(ref_dir, os.environ)
    try:
        drive(port, [batch_a, batch_b], fresh=True)
    finally:
        daemon.kill()
        daemon.wait()
    reference = spool_bytes(ref_dir)
    assert reference  # the daemon actually spooled something

    # Crash run: batch A acknowledged, then the daemon dies frozen at
    # the barrier inside batch B.
    faults = tmp_path / "faults"
    crash_dir = tmp_path / "crash-data"
    daemon, port = start_daemon(crash_dir, fault_env(faults))
    try:
        drive(port, [batch_a], fresh=True)
        wait_reached(faults, barrier)  # batch A crossed it
        clear_reached(faults, barrier)
        hold(faults, barrier)
        failed = []

        def doomed_submit():
            try:
                drive(port, [batch_b])
            except Exception as error:  # noqa: BLE001 - daemon dies mid-request
                failed.append(error)

        submitter = threading.Thread(target=doomed_submit)
        submitter.start()
        kill_at(daemon, faults, barrier)
        submitter.join(timeout=30)
        assert failed, "the torn submit must not be acknowledged"
    finally:
        release(faults, barrier)
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
    itemsize = column_dtypes(census_schema())[1].itemsize
    column = crash_dir / "acme" / "survey.frd.col1.spool"
    assert column.stat().st_size == itemsize * (len(batch_a) + spooled_before_kill)

    # The ledger acknowledged only batch A; the tail of B is dropped on
    # recovery (at-most-once submission semantics).
    ledger = LedgerStore(crash_dir).load("acme")
    assert ledger.collections["survey"].records == len(batch_a)

    # A restarted daemon recovers and the resubmitted batch lands on
    # the same perturbation stream position: byte-identical spools to
    # the never-disturbed run.
    daemon, port = start_daemon(crash_dir, os.environ)
    try:
        drive(port, [batch_b])
        time.sleep(0.05)  # let the post-ack journal line settle
    finally:
        daemon.send_signal(signal.SIGINT)
        daemon.wait(timeout=30)
    assert spool_bytes(crash_dir) == reference
    ledger = LedgerStore(crash_dir).load("acme")
    assert ledger.collections["survey"].records == len(data.records)


class TestServiceDaemonKilledMidSpoolAppend:
    def test_unacknowledged_batch_is_dropped_and_resubmit_converges(self, tmp_path):
        # Frozen before column 1 is written: B's rows sit in column 0 only.
        kill_mid_batch_and_resubmit(tmp_path, "spool:mid-append", 0)


class TestServiceDaemonKilledBeforeCommit:
    def test_uncommitted_batch_is_dropped_and_resubmit_converges(self, tmp_path):
        # Every column of B is fsynced; only its journal line is missing.
        kill_mid_batch_and_resubmit(tmp_path, LEDGER_PRE_COMMIT, 32)
