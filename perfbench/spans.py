"""In-memory spans around the public calls of each layer.

The benchmark's traced run installs these wrappers from outside the
program: nothing under ``src/`` records spans itself.  A span is
``(name, start, end, parent)``; spans stay in memory and are written
once, at the end, as Chrome-trace JSON (Perfetto opens it as is).

Self time is a span's duration minus the durations of its direct
children.  Every instrumented call is synchronous and runs on one
thread (the pipeline and the daemon's event loop both call layers to
completion), so children never overlap and a stack gives parents.

Use::

    tracer = Tracer()
    install(tracer)          # after the program's modules are imported
    ...                      # run the workload
    metrics = layer_metrics(tracer, wall_s)
    tracer.write_chrome(path)
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
import weakref
from collections import Counter, defaultdict

_clock = time.perf_counter


class Tracer:
    """Spans, counters and samples of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self.counts: Counter = Counter()
        self.samples: dict[str, list] = defaultdict(list)
        self.last: dict[str, float] = {}

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self._open[name] += 1
        self.starts.append(_clock())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = _clock()
        self._stack.pop()
        self._open[self.names[index]] -= 1

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def parent_name(self) -> str | None:
        return self.names[self._stack[-1]] if self._stack else None

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, direct children subtracted."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        totals: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            totals[name] += self.ends[i] - self.starts[i] - child[i]
        return dict(totals)

    def top_level(self) -> list[int]:
        return [i for i, parent in enumerate(self.parents) if parent < 0]

    def covered(self) -> float:
        """Seconds inside any top-level span (the traced part of a run)."""
        return sum(self.ends[i] - self.starts[i] for i in self.top_level())

    def write_chrome(self, path) -> None:
        """Write every span as a Chrome-trace complete event."""
        origin = min(self.starts, default=0.0)
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (self.starts[i] - origin) * 1e6,
                "dur": (self.ends[i] - self.starts[i]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": i, "parent": self.parents[i]},
            }
            for i, name in enumerate(self.names)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def span_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call adds over a bare call (best of three)."""

    def noop(x):
        return x

    wrapped = _wrap(Tracer(), noop, "calibrate", None, False)
    best = math.inf
    for _ in range(3):
        start = _clock()
        for i in range(calls):
            noop(i)
        bare = _clock() - start
        start = _clock()
        for i in range(calls):
            wrapped(i)
        best = min(best, (_clock() - start - bare) / calls)
    return max(best, 0.0)


# ----------------------------------------------------------------------
# wrapping
# ----------------------------------------------------------------------
def _wrap(tracer: Tracer, fn, name: str, after, outermost: bool):
    """A synchronous wrapper recording one span per call.

    ``after(tracer, args, kwargs, result, parent_name)`` reads counts
    from the call; with ``outermost`` a call nested inside a span of the
    same name is not recorded again.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if outermost and tracer.is_open(name):
            return fn(*args, **kwargs)
        parent = tracer.parent_name()
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(tracer, args, kwargs, result, parent)
        return result

    return wrapper


def patch_method(tracer, cls, attr, name, after=None, outermost=False):
    """Wrap ``cls.attr`` (plain method or classmethod) in place."""
    original = cls.__dict__[attr]
    if isinstance(original, classmethod):
        wrapped = classmethod(
            _wrap(tracer, original.__func__, name, after, outermost)
        )
    else:
        wrapped = _wrap(tracer, original, name, after, outermost)
    setattr(cls, attr, wrapped)


def patch_function(tracer, module, attr, name, after=None, outermost=False):
    """Wrap ``module.attr`` and every ``from module import attr`` alias."""
    original = getattr(module, attr)
    wrapped = _wrap(tracer, original, name, after, outermost)
    for loaded in list(sys.modules.values()):
        if not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapped)


class _TimedJson:
    """Stand-in for a module's ``json`` that times ``loads``/``dumps``.

    With ``dumps_parent`` set, only encodes made directly inside that
    span are timed (the digest's canonical encode stays digest time).
    """

    def __init__(self, tracer, dumps_parent=None):
        self._tracer = tracer
        self._dumps_parent = dumps_parent

    def __getattr__(self, attr):
        return getattr(json, attr)

    def _timed(self, fn, args, kwargs):
        index = self._tracer.begin("service.json")
        try:
            return fn(*args, **kwargs)
        finally:
            self._tracer.end(index)

    def loads(self, *args, **kwargs):
        return self._timed(json.loads, args, kwargs)

    def dumps(self, *args, **kwargs):
        if (
            self._dumps_parent is not None
            and self._tracer.parent_name() != self._dumps_parent
        ):
            return json.dumps(*args, **kwargs)
        return self._timed(json.dumps, args, kwargs)


# ----------------------------------------------------------------------
# per-call counters read from arguments and results
# ----------------------------------------------------------------------
def _rows(value) -> int:
    if hasattr(value, "n_records"):
        return int(value.n_records)
    return int(value.shape[0])


def _count_records(key):
    def after(tracer, args, kwargs, result, parent):
        tracer.counts[key] += _rows(args[1])

    return after


def _count_nbytes(key):
    def after(tracer, args, kwargs, result, parent):
        tracer.counts[key] += int(result.nbytes)

    return after


def _estimated(tracer, args, kwargs, result, parent):
    tracer.counts["mining.itemsets_estimated"] += len(result)
    if parent == "mining.apriori":
        tracer.counts["mining.candidates"] += len(result)


def _marginal_solves():
    """Count subset solves: attribute sets an estimator had not seen."""
    seen = weakref.WeakKeyDictionary()

    def after(tracer, args, kwargs, result, parent):
        _estimated(tracer, args, kwargs, result, parent)
        known = seen.setdefault(args[0], set())
        for itemset in args[1]:
            if itemset.attributes not in known:
                known.add(itemset.attributes)
                tracer.counts["mining.subset_solves"] += 1

    return after


def _counted_itemsets(tracer, args, kwargs, result, parent):
    counter, itemsets = args[0], args[1]
    tracer.counts["kernels.itemsets_counted"] += len(result)
    # One AND per word for every multi-item itemset: the prefix-cache
    # path ANDs the cached parent words with the last item's row.
    tracer.counts["kernels.words_and"] += counter.bitmaps.n_words * sum(
        1 for itemset in itemsets if len(itemset) > 1
    )


def _pattern_words(tracer, args, kwargs, result, parent):
    bitmaps, positions = args[0], args[1]
    # Every output cell is an AND over the words of k rows.
    tracer.counts["kernels.words_and"] += (
        bitmaps.n_words * len(result) * max(len(positions) - 1, 1)
    )


def _mined(tracer, args, kwargs, result, parent):
    tracer.counts["mining.levels"] += len(result.by_length)
    tracer.counts["mining.frequent"] += result.n_frequent


def _accumulated(tracer, args, kwargs, result, parent):
    tracer.counts["pipeline.chunks"] += math.ceil(
        result.n_records / args[0].chunk_size
    )


def _orchestrated(tracer, args, kwargs, result, parent):
    tracer.last["experiments.cells"] = args[0].stats.misses


def _stored(tracer, args, kwargs, result, parent):
    payload = args[2] if len(args) > 2 else kwargs["payload"]
    arrays = (args[3] if len(args) > 3 else kwargs.get("arrays")) or {}
    tracer.counts["store.puts"] += 1
    tracer.counts["store.bytes_written"] += len(
        json.dumps(payload, sort_keys=True)
    ) + sum(int(array.nbytes) for array in arrays.values())


def _fetched(tracer, args, kwargs, result, parent):
    tracer.counts["store.gets"] += 1
    tracer.counts["store.hits"] += result is not None


def _appended(tracer, args, kwargs, result, parent):
    from repro.data.backing import column_dtypes

    spool = args[0]
    rows = result[1] - result[0]
    dtypes = column_dtypes(spool.schema)
    tracer.counts["data.spool_bytes_written"] += rows * sum(
        dtype.itemsize for dtype in dtypes
    )
    if kwargs.get("fsync", True):
        tracer.counts["data.spool_fsyncs"] += len(dtypes)
    tracer.counts["service.user_bytes"] += rows * spool.schema.n_attributes


def _saved(tracer, args, kwargs, result, parent):
    store, ledger = args[0], args[1]
    path = store.tenant_dir(ledger.tenant) / "ledger.json"
    tracer.counts["ledger.saves"] += 1
    tracer.counts["ledger.bytes_written"] += path.stat().st_size
    tracer.last["ledger.journal_entries"] = len(ledger.journal)


def _patch_batcher(tracer, batcher_cls, runtime_cls):
    """Batch spans, plus each submission's wait from enqueue to its batch."""
    batch_started: dict[int, float] = {}
    process = runtime_cls.__dict__["_process_batch"]
    submit = batcher_cls.__dict__["submit"]

    @functools.wraps(process)
    def timed_process(self, batch, parts):
        started = _clock()
        index = tracer.begin("service.batch")
        try:
            result = process(self, batch, parts)
        finally:
            tracer.end(index)
        batch_started[id(result)] = started
        tracer.counts["service.batches"] += 1
        tracer.samples["service.batch_rows"].append(int(batch.shape[0]))
        return result

    @functools.wraps(submit)
    async def timed_submit(self, records, context=None):
        enqueued = _clock()
        outcome = await submit(self, records, context=context)
        started = batch_started.get(id(outcome[0]))
        if started is not None:
            tracer.samples["service.queue_wait_ms"].append(
                (started - enqueued) * 1e3
            )
        return outcome

    runtime_cls._process_batch = timed_process
    batcher_cls.submit = timed_submit


# ----------------------------------------------------------------------
# the layer table
# ----------------------------------------------------------------------
def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer (README.md has the table)."""
    import repro.experiments.cli  # noqa: F401  (imports every layer)
    from repro.baselines.cut_and_paste import CutAndPastePerturbation
    from repro.baselines.mask import MaskPerturbation
    from repro.core.engine import (
        GammaDiagonalPerturbation,
        RandomizedGammaDiagonalPerturbation,
    )
    from repro.data.dataset import CategoricalDataset
    from repro.data.io import FrdDataset, FrdSpool
    from repro.mechanisms.base import MarginalInversionEstimator

    # Packages re-export functions under their submodules' names
    # (``repro.mining.apriori``), so modules are looked up by path.
    def module(name):
        return importlib.import_module(f"repro.{name}")

    census, health = module("data.census"), module("data.health")
    orchestrator = module("experiments.orchestrator")
    reporting = module("experiments.reporting")
    accuracy = module("metrics.accuracy")
    apriori_module = module("mining.apriori")
    counting = module("mining.counting")
    reconstructing = module("mining.reconstructing")
    bitmap = module("mining.kernels.bitmap")
    kernel_counting = module("mining.kernels.counting")
    batch = module("pipeline.batch")
    executor = module("pipeline.executor")
    streaming = module("pipeline.streaming")
    batcher = module("service.batcher")
    ledger = module("service.ledger")
    server = module("service.server")
    wire = module("service.wire")
    fingerprint = module("store.fingerprint")
    store = module("store.store")

    method = functools.partial(patch_method, tracer)
    function = functools.partial(patch_function, tracer)

    method(FrdDataset, "records", "data.frd_read",
           _count_nbytes("data.frd_bytes_read"))
    # The orchestrator holds the generators in a table; its cells call
    # them through DatasetSpec.build.
    method(orchestrator.DatasetSpec, "build", "data.generate", outermost=True)
    function(census, "generate_census", "data.generate", outermost=True)
    function(health, "generate_health", "data.generate", outermost=True)
    method(CategoricalDataset, "subset_counts", "data.subset_count")

    for engine in (GammaDiagonalPerturbation, RandomizedGammaDiagonalPerturbation):
        for attr in ("perturb", "perturb_chunk", "perturb_joint",
                     "perturb_from_uniforms"):
            if attr in engine.__dict__:
                method(engine, attr, "core.sample",
                       _count_records("core.records_sampled"), outermost=True)
    function(counting, "reconstruct_gamma_diagonal_supports", "core.eq28")

    for baseline in (MaskPerturbation, CutAndPastePerturbation):
        method(baseline, "perturb", "baselines.perturb",
               _count_records("baselines.records_perturbed"))

    for attr in ("accumulate", "accumulate_bitmaps"):
        method(executor.PerturbationPipeline, attr, "pipeline.accumulate",
               _accumulated)
    method(batch.SequentialPerturbStream, "perturb_batch",
           "pipeline.batch_perturb")

    for attr in ("from_records", "from_dataset", "from_boolean_matrix"):
        method(bitmap.TransactionBitmaps, attr, "kernels.pack",
               _count_nbytes("kernels.bytes_packed"), outermost=True)
    # BitmapSupportCounter.supports only divides what counts returns.
    method(kernel_counting.BitmapSupportCounter, "counts", "kernels.count",
           _counted_itemsets, outermost=True)
    function(kernel_counting, "pattern_counts", "kernels.count",
             _pattern_words, outermost=True)
    method(bitmap.TransactionBitmaps, "subset_counts", "kernels.count",
           _pattern_words, outermost=True)

    estimators = {
        "exact": (counting.ExactSupportCounter,),
        "gd": (counting.GammaDiagonalSupportEstimator,),
        "mask": (counting.MaskSupportEstimator,),
        "cp": (counting.CutAndPasteSupportEstimator,),
        "accumulated": (
            streaming.AccumulatedSupportEstimator,
            streaming.BitmapStreamSupportEstimator,
        ),
    }
    for kind, classes in estimators.items():
        for cls in classes:
            method(cls, "supports", f"mining.estimate.{kind}", _estimated)
    method(MarginalInversionEstimator, "supports", "mining.estimate.marginal",
           _marginal_solves())

    function(apriori_module, "apriori", "mining.apriori", _mined)
    function(reconstructing, "mine_per_level", "mining.apriori", _mined)
    function(apriori_module, "generate_candidates", "mining.candgen")
    function(accuracy, "evaluate_mining", "metrics.evaluate")

    method(orchestrator.Orchestrator, "run", "experiments.cell", _orchestrated)
    for attr in ("render_series_table", "render_schema_table",
                 "render_figure_panels", "render_privacy_table",
                 "render_solver_table"):
        function(reporting, attr, "experiments.render")

    method(store.ResultStore, "put", "store.put", _stored)
    method(store.ResultStore, "get", "store.get", _fetched)
    function(fingerprint, "code_fingerprint", "store.fingerprint")

    server.json = _TimedJson(tracer)
    wire.json = _TimedJson(tracer, dumps_parent="service.frame")
    function(wire, "frame_response", "service.frame")
    function(wire, "decode_records", "service.wire_decode")
    function(wire, "encode_records", "service.wire_encode")
    function(wire, "payload_digest", "service.digest")
    _patch_batcher(tracer, batcher.MicroBatcher, server.CollectionRuntime)
    method(FrdSpool, "append", "data.spool_append", _appended)
    method(FrdSpool, "to_dataset", "data.spool_read")
    method(ledger.LedgerStore, "save", "ledger.save", _saved)
    method(server.CollectionRuntime, "estimator", "service.estimator_build")
    for attr in ("handle_mine", "handle_reconstruct"):
        method(server.PerturbationService, attr, "service.mine")


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
#: Span name -> per-layer self-time metric (seconds).
SPAN_METRICS = {
    "data.frd_read": "data.frd_read_s",
    "data.generate": "data.generate_s",
    "data.subset_count": "data.subset_count_s",
    "core.sample": "core.sample_s",
    "core.eq28": "core.eq28_s",
    "baselines.perturb": "baselines.perturb_s",
    "pipeline.accumulate": "pipeline.accumulate_s",
    "pipeline.batch_perturb": "pipeline.batch_perturb_s",
    "kernels.pack": "kernels.pack_s",
    "kernels.count": "kernels.count_s",
    "mining.estimate.exact": "mining.estimate_s.exact",
    "mining.estimate.gd": "mining.estimate_s.gd",
    "mining.estimate.mask": "mining.estimate_s.mask",
    "mining.estimate.cp": "mining.estimate_s.cp",
    "mining.estimate.marginal": "mining.estimate_s.marginal",
    "mining.estimate.accumulated": "mining.estimate_s.accumulated",
    "mining.apriori": "mining.apriori_s",
    "mining.candgen": "mining.candgen_s",
    "metrics.evaluate": "metrics.evaluate_s",
    "experiments.cell": "experiments.cell_s",
    "experiments.render": "experiments.render_s",
    "store.put": "store.put_s",
    "store.get": "store.get_s",
    "store.fingerprint": "store.fingerprint_s",
    "service.json": "service.json_s",
    "service.frame": "service.frame_s",
    "service.wire_decode": "service.wire_decode_s",
    "service.wire_encode": "service.wire_encode_s",
    "service.digest": "service.digest_s",
    "service.batch": "service.batch_s",
    "data.spool_append": "data.spool_append_s",
    "data.spool_read": "data.spool_read_s",
    "ledger.save": "ledger.save_s",
    "service.estimator_build": "service.estimator_build_s",
    "service.mine": "service.mine_s",
}

#: Counters reported as counted.
COUNT_METRICS = (
    "data.frd_bytes_read",
    "core.records_sampled",
    "baselines.records_perturbed",
    "pipeline.chunks",
    "kernels.bytes_packed",
    "kernels.itemsets_counted",
    "kernels.words_and",
    "mining.itemsets_estimated",
    "mining.subset_solves",
    "mining.levels",
    "mining.candidates",
    "mining.frequent",
    "store.puts",
    "store.bytes_written",
    "service.batches",
    "data.spool_fsyncs",
    "data.spool_bytes_written",
    "ledger.saves",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, calls: int = 1) -> dict:
    """Per-layer metrics of ``calls`` identical traced calls, per call.

    Times and counts are divided by ``calls``; ratios, means and maxima
    are not.  ``wall_s`` is the wall time of one call.
    """
    per = 1.0 / calls
    selfs = tracer.self_times()
    counts = tracer.counts
    out = {
        metric: selfs.get(span, 0.0) * per for span, metric in SPAN_METRICS.items()
    }
    out.update({metric: counts[metric] * per for metric in COUNT_METRICS})
    out["mining.solve_reuse"] = _ratio(
        counts["mining.itemsets_estimated"], counts["mining.subset_solves"]
    )
    out["mining.frequent_per_candidate"] = _ratio(
        counts["mining.frequent"], counts["mining.candidates"]
    )
    out["experiments.cells"] = tracer.last.get("experiments.cells", 0) * per
    out["store.hit_ratio"] = _ratio(counts["store.hits"], counts["store.gets"])
    out["ledger.bytes_per_save"] = _ratio(
        counts["ledger.bytes_written"], counts["ledger.saves"]
    )
    out["ledger.journal_entries"] = tracer.last.get("ledger.journal_entries", 0)
    out["service.batch_rows"] = _mean(tracer.samples["service.batch_rows"])
    out["service.queue_wait_ms"] = _mean(tracer.samples["service.queue_wait_ms"])
    out["service.bytes_written_per_user_byte"] = _ratio(
        counts["data.spool_bytes_written"] + counts["ledger.bytes_written"],
        counts["service.user_bytes"],
    )
    # On the daemon every top-level span is one synchronous block of
    # the event loop; the longest is how long the loop stalled.
    out["service.loop_block_ms"] = (
        max(tracer.ends[i] - tracer.starts[i] for i in tracer.top_level()) * 1e3
        if counts["service.batches"]
        else 0.0
    )
    covered = tracer.covered() * per
    out["trace.other_s"] = max(wall_s - covered, 0.0)
    out["trace.covered_share"] = _ratio(covered, wall_s)
    out["trace.spans"] = len(tracer.names) * per
    return out
