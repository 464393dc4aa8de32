"""ClaimBoard protocol and claim-coordinated orchestration.

The correctness bar for multi-host ``frapp all`` (DESIGN.md, "Scaling
out"): N claim-coordinated hosts over one shared store must produce
results bit-identical to a single host, split the computed cells
between them, and recover from dead holders (expired leases) and
poisoned claim files without ever double-trusting a claim.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from faultinject import poison_claim
from repro.exceptions import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.orchestrator import (
    DatasetSpec,
    Orchestrator,
    comparison_cells,
)
from repro.store import ClaimBoard, ResultStore


@pytest.fixture
def board_root(tmp_path):
    return tmp_path / "claims"


def board(root, holder, lease=60.0):
    return ClaimBoard(root, lease=lease, holder=holder)


class TestClaimBoard:
    def test_exclusive_acquire_and_release(self, board_root):
        a, b = board(board_root, "A"), board(board_root, "B")
        assert a.acquire("k") is True
        assert b.acquire("k") is False
        assert a.acquire("k") is False  # a board never re-claims its own
        assert b.holder_of("k").holder == "A"
        assert b.release("k") is False  # only the holder may release
        assert a.release("k") is True
        assert a.holder_of("k") is None
        assert b.acquire("k") is True

    def test_expired_lease_is_stolen_and_stale_release_is_inert(self, board_root):
        dying = board(board_root, "dying", lease=0.05)
        survivor = board(board_root, "survivor")
        assert dying.acquire("k")
        time.sleep(0.08)
        assert survivor.acquire("k") is True
        # The original (slow) holder must not clobber the thief's claim.
        assert dying.release("k") is False
        assert survivor.holder_of("k").holder == "survivor"

    def test_poisoned_claims_are_reclaimable(self, board_root):
        b = board(board_root, "B")
        poison_claim(b.root, "torn")  # truncated JSON
        assert b.acquire("torn") is True
        poison_claim(b.root, "fields", json.dumps({"key": "fields"}).encode())
        assert b.acquire("fields") is True  # missing holder/expiry fields
        poison_claim(b.root, "type", b"[1, 2, 3]")
        assert b.acquire("type") is True  # not even an object

    def test_live_claims_survive_poison_free_sweep(self, board_root):
        live = board(board_root, "live")
        live.acquire("keep")
        poison_claim(board_root, "junk")
        expired = board(board_root, "expired", lease=0.01)
        expired.acquire("gone")
        time.sleep(0.05)
        assert board(board_root, "sweeper").sweep() == 2
        assert live.holder_of("keep").holder == "live"

    def test_release_all_reports_and_clears(self, board_root):
        a = board(board_root, "A")
        a.acquire("k1")
        a.acquire("k2")
        assert a.held() == ("k1", "k2")
        assert a.release_all() == 2
        assert a.held() == ()
        assert a.release_all() == 0

    def test_concurrent_acquire_has_exactly_one_winner(self, board_root):
        boards = [board(board_root, f"h{i}") for i in range(8)]
        wins = []
        barrier = threading.Barrier(len(boards))

        def contend(b):
            barrier.wait()
            if b.acquire("contested"):
                wins.append(b.holder)

        threads = [threading.Thread(target=contend, args=(b,)) for b in boards]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1

    def test_rejects_nonpositive_lease(self, board_root):
        with pytest.raises(ExperimentError):
            ClaimBoard(board_root, lease=0.0)


def _strip_seconds(result):
    """Comparable form of a decoded cell (wall-clock timing dropped)."""
    if isinstance(result, dict):
        return sorted((k, repr(v)) for k, v in result.items() if k != "seconds")
    return sorted((length, repr(level)) for length, level in result.by_length.items())


@pytest.fixture(scope="module")
def grid():
    spec = DatasetSpec.from_name("CENSUS", n_records=1500)
    config = ExperimentConfig(min_support=0.05, mechanisms=("det-gd", "mask"))
    _, cells = comparison_cells(spec, config)
    return cells


@pytest.fixture(scope="module")
def reference(grid, tmp_path_factory):
    store = ResultStore(tmp_path_factory.mktemp("ref-store"))
    results = Orchestrator(store=store, fingerprint="fp").run(grid)
    return {name: _strip_seconds(result) for name, result in results.items()}


class TestClaimedOrchestration:
    def test_claims_require_a_store(self):
        with pytest.raises(ExperimentError):
            Orchestrator(store=None, claims=object())

    def test_two_hosts_split_the_grid_bit_identically(
        self, grid, reference, tmp_path
    ):
        store_root, claim_root = tmp_path / "store", tmp_path / "claims"
        outcomes = {}

        def host(name):
            orch = Orchestrator(
                store=ResultStore(store_root),
                fingerprint="fp",
                claims=ClaimBoard(claim_root, holder=name),
            )
            results = orch.run(grid)
            outcomes[name] = (
                {n: _strip_seconds(r) for n, r in results.items()},
                orch.stats,
            )

        threads = [
            threading.Thread(target=host, args=(name,)) for name in ("h1", "h2")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for name in ("h1", "h2"):
            results, stats = outcomes[name]
            assert results == reference
        s1, s2 = outcomes["h1"][1], outcomes["h2"][1]
        assert s1.misses + s2.misses == len(grid)  # every cell computed once
        assert s1.remote + s2.remote == len(grid)  # and adopted by the other
        assert not list(claim_root.glob("*.claim"))  # all claims released

    def test_pooled_claimed_run_matches_reference(self, grid, reference, tmp_path):
        orch = Orchestrator(
            store=ResultStore(tmp_path / "store"),
            jobs=2,
            fingerprint="fp",
            claims=ClaimBoard(tmp_path / "claims", holder="pool"),
        )
        results = orch.run(grid)
        assert {n: _strip_seconds(r) for n, r in results.items()} == reference
        assert orch.stats.misses == len(grid)

    def test_dead_holder_claims_are_stolen_and_grid_completes(
        self, grid, reference, tmp_path
    ):
        store = ResultStore(tmp_path / "store")
        claim_root = tmp_path / "claims"
        # A "host" that claimed every ready cell and then died without
        # releasing: its leases expire almost immediately.
        dead = ClaimBoard(claim_root, lease=0.05, holder="dead-host")
        survivor_board = ClaimBoard(claim_root, lease=60.0, holder="survivor")
        live = Orchestrator(
            store=store,
            fingerprint="fp",
            claims=survivor_board,
            poll_interval=0.01,
        )
        for cell in grid:
            assert dead.acquire(live.key_for(cell))
        time.sleep(0.08)
        results = live.run(grid)
        assert {n: _strip_seconds(r) for n, r in results.items()} == reference
        assert live.stats.misses == len(grid)
        assert not list(claim_root.glob("*.claim"))

    def test_poisoned_claim_does_not_block_the_grid(self, grid, reference, tmp_path):
        store = ResultStore(tmp_path / "store")
        claim_root = tmp_path / "claims"
        orch = Orchestrator(
            store=store,
            fingerprint="fp",
            claims=ClaimBoard(claim_root, holder="h"),
            poll_interval=0.01,
        )
        for cell in grid:
            poison_claim(claim_root, orch.key_for(cell))
        results = orch.run(grid)
        assert {n: _strip_seconds(r) for n, r in results.items()} == reference

    def test_remote_commits_are_adopted_not_recomputed(self, grid, reference, tmp_path):
        store_root = tmp_path / "store"
        Orchestrator(store=ResultStore(store_root), fingerprint="fp").run(grid)
        # A claim-coordinated late joiner sees only committed results.
        late = Orchestrator(
            store=ResultStore(store_root),
            fingerprint="fp",
            claims=ClaimBoard(tmp_path / "claims", holder="late"),
        )
        results = late.run(grid)
        assert {n: _strip_seconds(r) for n, r in results.items()} == reference
        assert late.stats.misses == 0
        # Plain-hit accounting: the warm entries are found by the
        # initial store scan, before the claimed scheduler runs.
        assert late.stats.hits == len(grid)

    def test_commit_landing_before_the_claim_is_adopted(
        self, grid, reference, tmp_path
    ):
        store_root = tmp_path / "store"
        peer = Orchestrator(store=ResultStore(store_root), fingerprint="fp")

        class LateBoard(ClaimBoard):
            def acquire(self, key):
                # The peer commits (and releases) after this host's
                # store check but before its claim.
                peer.run(grid)
                return super().acquire(key)

        orch = Orchestrator(
            store=ResultStore(store_root),
            fingerprint="fp",
            claims=LateBoard(tmp_path / "claims", holder="late"),
        )
        results = orch.run(grid)
        assert {n: _strip_seconds(r) for n, r in results.items()} == reference
        assert orch.stats.misses == 0
        assert orch.stats.remote == len(grid)
        assert not list((tmp_path / "claims").glob("*.claim"))

    def test_erroring_host_releases_its_claims(self, tmp_path, grid):
        from repro.exceptions import FrappError

        board = ClaimBoard(tmp_path / "claims", holder="erratic")
        orch = Orchestrator(
            store=ResultStore(tmp_path / "store"),
            fingerprint="fp",
            claims=board,
        )
        spec = DatasetSpec.from_name("CENSUS", n_records=50)
        bad = [
            type(grid[0])(
                name="exact:BROKEN",
                func="exact",
                params={"dataset": spec.spec(), "min_support": -1.0},
            )
        ]
        with pytest.raises(FrappError):
            orch.run(bad)
        assert board.held() == ()
        assert not list((tmp_path / "claims").glob("*.claim"))

    def test_summary_mentions_adoption_only_when_present(self):
        from repro.experiments.orchestrator import CacheStats

        stats = CacheStats()
        stats.hits = 2
        assert "adopted" not in stats.summary()
        stats.record_remote()
        assert "1 adopted from peer(s)" in stats.summary()
        assert stats.hits == 3
