"""The ``service`` workload: a real ``frapp serve`` under open-loop load.

One generator process, one asyncio thread, two keep-alive connections:

* the submit connection sends keyed 1000-record CENSUS ``/v1/submit``
  requests on a fixed schedule (open loop) at each rate of a ladder,
  without waiting for replies; each request is timed from when it was
  due, and how late the generator itself sent it is recorded;
* the analyst connection is a closed loop: every ``ANALYST_EVERY``
  submits it sends ``/v1/mine`` (supmin 2%) and then
  ``/v1/reconstruct``, each after the previous reply;
* after the ladder, a closed-loop burst of ``BURST`` submits on the
  submit connection gives the end-to-end ``wall_s``; the daemon's CPU
  over the whole session gives ``cpu_s``.

Every answer is checked afterwards against the ledger alone: the spool
must equal ``mechanism.perturb(dataset, seed)``, the journal must hold
one entry per key, and every mine/reconstruct answer must equal the
offline estimator over the same spooled prefix.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Ladder rates (requests/s) and each rung's share of ``--seconds``.
#: From 20 s on, the low and high rungs get >= 200 submits each.
LADDER = ((20.0, 0.50), (26.0, 0.18), (32.0, 0.32))
#: A rung passes when its submit p95 stays within this (ms) ...
LATENCY_LIMIT_MS = 200.0
#: ... and its mean backlog grows by at most this many requests.
BACKLOG_SLACK = 1.0
RECORDS_PER_SUBMIT = 1000
ANALYST_EVERY = 50
BURST = 150
BOOTS = 5
MIN_SUPPORT = 0.02
TENANT, COLLECTION = "bench", "load"
#: The generator fell behind (run invalid) when its own send delay
#: exceeds these.
GENERATOR_P95_LIMIT_MS = 10.0
GENERATOR_MAX_LIMIT_MS = 100.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ----------------------------------------------------------------------
# the daemon
# ----------------------------------------------------------------------
class Daemon:
    """One ``frapp serve`` subprocess (optionally the traced launcher)."""

    def __init__(self, root: Path, env: dict, data_dir: Path, spans_out=None):
        self.data_dir = data_dir
        self.spans_out = spans_out
        if spans_out is None:
            command = [sys.executable, "-m", "repro.experiments"]
        else:
            command = [
                sys.executable, str(Path(__file__).with_name("serve_traced.py")),
                "--spans-out", str(spans_out), "--",
            ]
        command += ["serve", "--port", "0", "--data-dir", str(data_dir)]
        self._log = open(data_dir.parent / f"{data_dir.name}.log", "wb")
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log
        )
        self.port = self._announced_port(timeout=60.0)

    def _announced_port(self, timeout: float) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline().decode() if ready else ""
        match = re.search(r"http://[\w.\-]+:(\d+)", line)
        if not match:
            self.stop()
            raise RuntimeError(f"frapp serve announced no port: {line!r}")
        return int(match.group(1))

    def cpu_s(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1]
        utime, stime = fields.split()[11:13]
        return (int(utime) + int(stime)) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGINT (the daemon drains and closes its spools), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def boot(root, env, data_dir, spans_out=None):
    """Start a daemon, wait for health, open the tenant and collection.

    Returns ``(daemon, seconds)``: set-up as a user pays it.
    """
    from repro.service.client import ServiceClient

    start = time.perf_counter()
    daemon = Daemon(root, env, data_dir, spans_out)
    try:
        with ServiceClient(port=daemon.port, timeout=30.0) as client:
            while client.health().get("status") != "ok":
                time.sleep(0.01)
            client.register_tenant(TENANT)
            client.open_collection(
                TENANT, COLLECTION, idempotency_key=f"open-{COLLECTION}"
            )
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - start


# ----------------------------------------------------------------------
# HTTP over asyncio streams
# ----------------------------------------------------------------------
def http_post(path: str, body: dict) -> bytes:
    payload = json.dumps(body).encode()
    head = (
        f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n\r\n"
    )
    return head.encode() + payload


async def read_response(reader) -> tuple[int, dict]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("daemon closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, json.loads(await reader.readexactly(length))


def ladder(seconds: float) -> list[dict]:
    """The rungs for a ``seconds``-long ladder, with request offsets."""
    rungs, first = [], 0
    for rate, share in LADDER:
        count = max(1, round(rate * seconds * share))
        rungs.append({"rate": rate, "first": first, "count": count})
        first += count
    return rungs


class Load:
    """Schedule, replies and timings of one load session."""

    def __init__(self, port: int, rungs: list, requests: list, itemsets: list):
        self.port = port
        self.rungs = rungs
        self.requests = requests
        self.itemsets = itemsets
        self.ladder_submits = sum(rung["count"] for rung in rungs)
        self.replies: list = [None] * len(requests)
        self.analyst: list = []
        self.burst_wall_s = 0.0
        self.burst_cpu_s = 0.0
        self.burst_latencies: list = []
        #: Reads the daemon's CPU seconds (set by the caller).
        self.daemon_cpu = lambda: 0.0

    async def run(self) -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        a_reader, a_writer = await asyncio.open_connection("127.0.0.1", self.port)
        triggers: asyncio.Queue = asyncio.Queue()
        analyst = asyncio.ensure_future(self._analyst(a_reader, a_writer, triggers))
        try:
            for index, rung in enumerate(self.rungs):
                await self._rung(reader, writer, rung, index, triggers)
            await triggers.put(None)
            await analyst
            await self._burst(reader, writer)
        finally:
            if not analyst.done():
                analyst.cancel()
            for stream in (writer, a_writer):
                stream.close()

    async def _rung(self, reader, writer, rung, index, triggers) -> None:
        loop = asyncio.get_running_loop()
        rate, first, count = rung["rate"], rung["first"], rung["count"]
        start = loop.time() + 0.05
        due = [start + i / rate for i in range(count)]
        late, latency, backlog = [0.0] * count, [0.0] * count, []
        received = 0

        async def sender():
            for i in range(count):
                delay = due[i] - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                late[i] = loop.time() - due[i]
                writer.write(self.requests[first + i])
                backlog.append(i + 1 - received)
                if (first + i + 1) % ANALYST_EVERY == 0:
                    triggers.put_nowait(index)

        async def receiver():
            nonlocal received
            for i in range(count):
                self.replies[first + i] = await read_response(reader)
                latency[i] = loop.time() - due[i]
                received += 1

        await asyncio.gather(sender(), receiver())
        third = max(1, len(backlog) // 3)
        rung.update(
            latency_ms=[value * 1e3 for value in latency],
            late_ms=[value * 1e3 for value in late],
            backlog_growth=statistics.fmean(backlog[-third:])
            - statistics.fmean(backlog[:third]),
        )

    async def _analyst(self, reader, writer, triggers) -> None:
        loop = asyncio.get_running_loop()
        mine = http_post(
            "/v1/mine",
            {"tenant": TENANT, "collection": COLLECTION, "min_support": MIN_SUPPORT},
        )
        reconstruct = http_post(
            "/v1/reconstruct",
            {"tenant": TENANT, "collection": COLLECTION, "itemsets": self.itemsets},
        )
        while (rung := await triggers.get()) is not None:
            for kind, request in (("mine", mine), ("reconstruct", reconstruct)):
                sent = loop.time()
                writer.write(request)
                status, body = await read_response(reader)
                self.analyst.append(
                    {"kind": kind, "rung": rung, "status": status, "body": body,
                     "ms": (loop.time() - sent) * 1e3}
                )

    async def _burst(self, reader, writer) -> None:
        loop = asyncio.get_running_loop()
        cpu = self.daemon_cpu()
        start = loop.time()
        for i in range(self.ladder_submits, len(self.requests)):
            sent = loop.time()
            writer.write(self.requests[i])
            self.replies[i] = await read_response(reader)
            self.burst_latencies.append((loop.time() - sent) * 1e3)
        self.burst_wall_s = loop.time() - start
        self.burst_cpu_s = self.daemon_cpu() - cpu


def rung_summary(rung) -> dict:
    latency, late = rung["latency_ms"], rung["late_ms"]
    p95 = percentile(latency, 0.95)
    return {
        "rate_rps": rung["rate"],
        "samples": len(latency),
        "p50_ms": percentile(latency, 0.50),
        "p95_ms": p95,
        "late_p95_ms": percentile(late, 0.95),
        "late_max_ms": max(late),
        "backlog_growth": rung["backlog_growth"],
        "passes": p95 <= LATENCY_LIMIT_MS and rung["backlog_growth"] <= BACKLOG_SLACK,
    }


# ----------------------------------------------------------------------
# checks against the ledger alone
# ----------------------------------------------------------------------
def check(data_dir: Path, records, load: Load, keys: list) -> list[str]:
    """Every output check; returns one message per failed check."""
    import numpy as np

    from repro.data import census_schema
    from repro.data.dataset import CategoricalDataset
    from repro.data.io import FrdSpool
    from repro.mechanisms import MechanismSpec, from_spec
    from repro.mechanisms.base import MarginalInversionEstimator
    from repro.mining.apriori import apriori
    from repro.service import LedgerStore, wire

    failures = []
    schema = census_schema()
    n_total = len(load.requests) * RECORDS_PER_SUBMIT
    for i, (status, body) in enumerate(load.replies):
        expected = (i * RECORDS_PER_SUBMIT, (i + 1) * RECORDS_PER_SUBMIT)
        if status != 200 or (body.get("start"), body.get("stop")) != expected:
            failures.append(f"submit {i}: status {status}, body {body}")
    ledger = LedgerStore(data_dir).load(TENANT)
    record = ledger.collections[COLLECTION]
    mechanism = from_spec(MechanismSpec.from_dict(record.statement.spec), schema)
    offline = mechanism.perturb(CategoricalDataset(schema, records), seed=record.seed)
    with FrdSpool(schema, data_dir / TENANT / f"{COLLECTION}.frd") as spool:
        spooled = spool.records(0, n_total)
    if spooled.shape[0] != n_total or not np.array_equal(spooled, offline.records):
        failures.append("spool differs from mechanism.perturb(dataset, seed)")
    journaled = set(ledger.journal)
    if len(journaled) != len(keys) + 1 or not journaled.issuperset(keys):
        failures.append(
            f"journal holds {len(journaled)} keys, expected {len(keys) + 1}"
        )
    itemsets = wire.decode_itemsets(schema, load.itemsets)
    for answer in load.analyst:
        body = answer["body"]
        if answer["status"] != 200:
            failures.append(f"{answer['kind']}: status {answer['status']} {body}")
            continue
        n = body["n_records"]
        prefix = CategoricalDataset(schema, offline.records[:n])
        estimator = MarginalInversionEstimator(mechanism, prefix.subset_counts, n)
        if answer["kind"] == "mine":
            result = apriori(estimator, schema, MIN_SUPPORT)
            expected = [
                {
                    "length": length,
                    "itemsets": [
                        dict(wire.encode_itemset(its), support=float(support))
                        for its, support in sorted(level.items())
                    ],
                }
                for length, level in sorted(result.by_length.items())
            ]
            if body["itemsets"] != expected:
                failures.append(f"mine answer at {n} records differs offline")
        elif body["supports"] != [float(s) for s in estimator.supports(itemsets)]:
            failures.append(f"reconstruct answer at {n} records differs offline")
    return failures


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def run(root: Path, env: dict, work: Path, seed: int, seconds: float,
        spans_out=None) -> dict:
    """Boot, load, stop, check; returns metrics, extras and check counts."""
    from repro.data import census_schema, generate_census

    setup = []
    for attempt in range(BOOTS - 1):
        daemon, seconds_taken = boot(root, env, work / f"boot{attempt}")
        daemon.stop()
        setup.append(seconds_taken)

    rungs = ladder(seconds)
    n_requests = sum(rung["count"] for rung in rungs) + BURST
    records = generate_census(n_requests * RECORDS_PER_SUBMIT, seed=seed).records
    keys = [f"s{seed}-{i}" for i in range(n_requests)]
    requests = [
        http_post(
            "/v1/submit",
            {
                "tenant": TENANT,
                "collection": COLLECTION,
                "records": records[i * RECORDS_PER_SUBMIT:(i + 1) * RECORDS_PER_SUBMIT].tolist(),
                "idempotency_key": keys[i],
            },
        )
        for i in range(n_requests)
    ]
    schema = census_schema()
    itemsets = [{"attributes": [0], "values": [v]}
                for v in range(schema.cardinalities[0])]
    itemsets += [{"attributes": [0, 1], "values": [0, 0]},
                 {"attributes": [1, 2], "values": [1, 1]}]

    data_dir = work / "data"
    daemon, seconds_taken = boot(root, env, data_dir, spans_out)
    setup.append(seconds_taken)
    load = Load(daemon.port, rungs, requests, itemsets)
    try:
        load.daemon_cpu = daemon.cpu_s
        cpu = daemon.cpu_s()
        asyncio.run(load.run())
        session_cpu_s = daemon.cpu_s() - cpu
        peak_rss_mb = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    if daemon.proc.returncode not in (0, -signal.SIGINT):
        raise RuntimeError(f"frapp serve exited with {daemon.proc.returncode}")

    summaries = [rung_summary(rung) for rung in rungs]
    low, high = summaries[0], summaries[-1]
    passing = [rung["rate_rps"] for rung in summaries if rung["passes"]]
    late = [value for rung in load.rungs for value in rung["late_ms"]]
    generator_ok = (
        percentile(late, 0.95) <= GENERATOR_P95_LIMIT_MS
        and max(late) <= GENERATOR_MAX_LIMIT_MS
    )
    failures = check(data_dir, records, load, keys)
    if not generator_ok:
        failures.append("generator fell behind its schedule: run invalid")
    mines_high = [a["ms"] for a in load.analyst
                  if a["kind"] == "mine" and a["rung"] == len(rungs) - 1]
    # Each submit and analyst request, each analyst answer's offline
    # check, plus the spool, journal, submit-order and schedule checks.
    attempted = len(requests) + 2 * len(load.analyst) + 4
    return {
        "metrics": {
            "setup_s": statistics.median(setup),
            "wall_s": load.burst_wall_s,
            "cpu_s": session_cpu_s,
            "peak_rss_mb": peak_rss_mb,
        },
        "extras": {
            "burst_cpu_s": (load.burst_cpu_s, "s", "lower"),
            "records_per_s": (BURST * RECORDS_PER_SUBMIT / load.burst_wall_s,
                              "rec/s", "higher"),
            "submit_p50_ms.low": (low["p50_ms"], "ms", "lower"),
            "submit_p95_ms.low": (low["p95_ms"], "ms", "lower"),
            "submit_p50_ms.high": (high["p50_ms"], "ms", "lower"),
            "submit_p95_ms.high": (high["p95_ms"], "ms", "lower"),
            "mine_p50_ms": (statistics.median(mines_high) if mines_high else 0.0,
                            "ms", "lower"),
            "max_rate_rps": (max(passing, default=0.0), "req/s", "higher"),
            "generator_late_p95_ms": (percentile(late, 0.95), "ms", "lower"),
            "burst_submit_p50_ms": (percentile(load.burst_latencies, 0.5),
                                    "ms", "lower"),
            "replays": (sum(1 for _, body in load.replies if body.get("replayed")),
                        "count", "lower"),
        },
        "rungs": summaries,
        "attempted": attempted,
        "failures": failures,
        "generator_ok": generator_ok,
    }
