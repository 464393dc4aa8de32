"""DAG-aware, cache-backed experiment orchestration.

The paper's evaluation is a grid of *cells* -- one mechanism on one
dataset under one parameterisation (plus the exact-mining reference
each cell is scored against).  This module decomposes every experiment
(``frapp all``, the figures, Table 3 and the sweep ablations) into such
cells, runs the ones that are missing from the content-addressed
:class:`~repro.store.ResultStore` -- concurrently across worker
processes when ``jobs > 1``, in one scheduling loop -- and lets the
figure/table builders materialise their output purely from cell
payloads.  Cells are the only way those builders run: given no
orchestrator, they use an in-memory ``Orchestrator()`` (no store, one
job).  Processes that share one store need no coordination: commits are
atomic and content-addressed, so each computes the cells it misses and
their results agree.  Arbitrary in-memory datasets, which cannot be
cache-keyed, go through
:func:`~repro.experiments.runner.run_mechanism` and
:func:`~repro.experiments.runner.run_comparison` instead.

Determinism contract
--------------------
Cells never share random state: each cell's seed is an explicit *seed
spec* -- either a literal integer or ``spawn(root, index, count)``,
the ``numpy.random.SeedSequence`` child-stream discipline the
streaming pipeline (:mod:`repro.pipeline.executor`) established.  A
cell therefore computes the same numbers whether it runs inline, on a
worker process, in any order, or is served from the store -- which is
what makes a warm ``frapp all`` byte-identical to a cold one.

Cache keys
----------
A cell's key hashes ``{"func", "params"}`` together with the
:func:`~repro.store.code_fingerprint` of the library source.  Knobs
that cannot change the numbers (worker counts) live in
:attr:`Cell.env` and stay *out* of the key; knobs that can (the
spawn-seeded chunk layout of a multi-worker perturbation) are
normalised into ``params``.

Examples
--------
>>> spec = DatasetSpec.from_name("CENSUS", n_records=5000)
>>> spec.name, spec.n_records, spec.seed
('CENSUS', 5000, 7001)
>>> cell = exact_cell(spec, min_support=0.02)
>>> cell.func, cell.deps
('exact', ())
>>> cell2 = exact_cell(spec, min_support=0.05)
>>> cell.name != cell2.name
True
"""

from __future__ import annotations

import functools
import hashlib
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from repro.canonical import canonicalise
from repro.data.census import CENSUS_N_RECORDS, census_schema, generate_census
from repro.data.health import HEALTH_N_RECORDS, generate_health, health_schema
from repro.exceptions import ExperimentError
from repro.experiments.config import MECHANISM_KNOBS, ExperimentConfig, dataset_scale
from repro.faultpoints import reach
from repro.mechanisms import MechanismSpec
from repro.mechanisms import registry as mechanism_registry
from repro.mining.apriori import AprioriResult
from repro.mining.itemsets import Itemset
from repro.store import ResultStore, cache_key, canonical_json, code_fingerprint

#: Cell funcs that execute a perturbation mechanism (the expensive
#: grid cells a warm run must never recompute).
PERTURBING_FUNCS = frozenset({"mechanism", "classify-private"})

#: Default generator seeds behind the canonical paper datasets.
_DATASET_DEFAULTS = {
    "CENSUS": (CENSUS_N_RECORDS, 7001, generate_census, census_schema),
    "HEALTH": (HEALTH_N_RECORDS, 7002, generate_health, health_schema),
}


@dataclass(frozen=True)
class DatasetSpec:
    """A cacheable description of a paper dataset.

    Unlike an in-memory :class:`~repro.data.dataset.CategoricalDataset`,
    a spec is hashable into a cache key and can be rebuilt inside any
    worker process, which is what makes cells self-contained.
    """

    name: str
    n_records: int
    seed: int

    @classmethod
    def from_name(cls, name: str, n_records=None, seed=None) -> "DatasetSpec":
        """Spec for a canonical dataset, honouring ``$REPRO_SCALE``.

        ``n_records=None`` resolves to the paper's size times the
        global scale *now*, so the resolved size (not the environment)
        is what gets hashed into cache keys.
        """
        key = name.upper()
        if key not in _DATASET_DEFAULTS:
            raise ExperimentError(f"unknown dataset {name!r}")
        default_n, default_seed, _, _ = _DATASET_DEFAULTS[key]
        if n_records is None:
            n_records = int(default_n * dataset_scale())
        return cls(key, int(n_records), default_seed if seed is None else int(seed))

    def build(self):
        """The dataset this spec describes, memoised per process.

        The cells of one run share a few specs, so each gets the same
        dataset object from an LRU memo of the last four built; its
        records are read-only, so no cell can change what another sees.
        """
        return _generate(self.name, self.n_records, self.seed)

    def schema(self):
        """The dataset's schema (no data generation)."""
        _, _, _, schema = _DATASET_DEFAULTS[self.name]
        return schema()

    def spec(self) -> dict:
        """JSON-able form embedded in cell params."""
        return {"name": self.name, "n_records": self.n_records, "seed": self.seed}


@functools.lru_cache(maxsize=4)
def _generate(name: str, n_records: int, seed: int):
    _, _, generate, _ = _DATASET_DEFAULTS[name]
    return generate(n_records, seed=seed)


def int_seed(value: int) -> dict:
    """Seed spec for a literal integer seed."""
    return {"kind": "int", "value": int(value)}


def spawn_seed(root: int, index: int, count: int) -> dict:
    """Seed spec for child ``index`` of ``SeedSequence(root).spawn(count)``.

    Matches :func:`repro.stats.rng.spawn_generators`, so a cell using
    this spec draws the same stream the serial comparison loop would
    hand its ``index``-th mechanism.
    """
    return {
        "kind": "spawn",
        "root": int(root),
        "index": int(index),
        "count": int(count),
    }


def resolve_seed(seed_spec: dict):
    """Turn a seed spec into what ``run_mechanism``'s ``seed=`` accepts."""
    kind = seed_spec.get("kind")
    if kind == "int":
        return seed_spec["value"]
    if kind == "spawn":
        children = np.random.SeedSequence(seed_spec["root"]).spawn(seed_spec["count"])
        return np.random.default_rng(children[seed_spec["index"]])
    raise ExperimentError(f"unknown seed spec {seed_spec!r}")


@dataclass(frozen=True)
class Cell:
    """One unit of cached experiment work.

    Attributes
    ----------
    name:
        Unique, human-skimmable id within a run (embedded in store
        metadata, shown by ``frapp cache ls``).
    func:
        Registry name of the compute/decode pair (``"exact"``,
        ``"mechanism"``, ...).
    params:
        Everything that determines the cell's *numbers*; hashed into
        the cache key.
    deps:
        Names of cells whose decoded results this cell consumes.
    env:
        Result-invariant execution knobs (worker counts); excluded
        from the cache key by construction.
    """

    name: str
    func: str
    params: dict = field(hash=False)
    deps: tuple = ()
    env: dict = field(default_factory=dict, hash=False)

    def key_spec(self) -> dict:
        """The hashed portion of the cell (everything but ``env``)."""
        return {"func": self.func, "params": self.params}


def _short_digest(params: dict) -> str:
    return hashlib.sha256(canonical_json(params).encode("utf-8")).hexdigest()[:10]


# ----------------------------------------------------------------------
# result (de)serialisation
# ----------------------------------------------------------------------
def encode_apriori(result: AprioriResult):
    """``AprioriResult -> (payload, arrays)`` for the store.

    Itemsets per length go to an ``(n, length, 2)`` int array, supports
    to a float64 vector, both in sorted-itemset order, so encoding is
    deterministic and exact.
    """
    payload = {
        "min_support": result.min_support,
        "lengths": sorted(result.by_length),
    }
    arrays = {}
    for length, level in result.by_length.items():
        itemsets = sorted(level)
        arrays[f"items_{length}"] = np.asarray(
            [itemset.items for itemset in itemsets], dtype=np.int64
        )
        arrays[f"supports_{length}"] = np.asarray(
            [level[itemset] for itemset in itemsets], dtype=np.float64
        )
    return payload, arrays


def decode_apriori(payload: dict, arrays: dict) -> AprioriResult:
    """Inverse of :func:`encode_apriori` (bit-exact supports)."""
    by_length = {}
    for length in payload["lengths"]:
        items = arrays[f"items_{length}"]
        supports = arrays[f"supports_{length}"]
        by_length[int(length)] = {
            Itemset(tuple(map(tuple, row))): float(support)
            for row, support in zip(items.tolist(), supports.tolist())
        }
    return AprioriResult(min_support=payload["min_support"], by_length=by_length)


def _lengths_to_payload(series: dict) -> dict:
    """Stringify lengths and encode NaN gaps as JSON ``null``.

    ``support_error`` legitimately returns ``nan`` when a mechanism
    identifies no itemset at some length (the paper plots a gap), and
    NaN is not cache-keyable JSON -- so it rides as ``None``.
    """
    return {
        str(length): None if value != value else value
        for length, value in series.items()
    }


def _lengths_from_payload(series: dict) -> dict:
    """Inverse of :func:`_lengths_to_payload` (``null`` -> ``nan``)."""
    return {
        int(length): float("nan") if value is None else value
        for length, value in series.items()
    }


# ----------------------------------------------------------------------
# cell compute / decode functions
# ----------------------------------------------------------------------
def _compute_exact(params, deps, env):
    from repro.mining.reconstructing import mine_exact

    dataset = DatasetSpec(**params["dataset"]).build()
    result = mine_exact(dataset, params["min_support"])
    return encode_apriori(result)


def _compute_mechanism(params, deps, env):
    from repro.experiments.runner import run_mechanism

    dataset = DatasetSpec(**params["dataset"]).build()
    mechanism = params["mechanism"]
    if isinstance(mechanism, dict):
        # Spec-built mechanisms are self-describing; the config only
        # carries the protocol and execution knobs.
        mechanism = MechanismSpec.from_dict(mechanism)
    config = ExperimentConfig(
        min_support=params["min_support"],
        protocol=params["protocol"],
        **env,
        # A name-keyed cell holds the knobs its mechanism is built with;
        # a spec cell holds none.
        **{knob: params[knob] for knob in MECHANISM_KNOBS if knob in params},
    )
    run = run_mechanism(
        dataset,
        mechanism,
        config,
        true_result=deps["exact"],
        seed=resolve_seed(params["seed"]),
    )
    payload = {
        "mechanism": run.mechanism,
        "rho": _lengths_to_payload(run.errors.rho),
        "sigma_plus": _lengths_to_payload(run.errors.sigma_plus),
        "sigma_minus": _lengths_to_payload(run.errors.sigma_minus),
        "seconds": run.seconds,
    }
    return payload, {}


def _decode_mechanism(payload, arrays):
    return {
        "mechanism": payload["mechanism"],
        "rho": _lengths_from_payload(payload["rho"]),
        "sigma_plus": _lengths_from_payload(payload["sigma_plus"]),
        "sigma_minus": _lengths_from_payload(payload["sigma_minus"]),
        "seconds": payload["seconds"],
    }


def _compute_classify_ref(params, deps, env):
    from repro.mining.classify import NaiveBayesClassifier

    train = DatasetSpec(**params["train"]).build()
    test = DatasetSpec(**params["test"]).build()
    classifier = NaiveBayesClassifier(train.schema, params["class_attribute"])
    exact = classifier.fit(train)
    position = exact.class_attribute
    majority = int(np.bincount(train.column(position)).argmax())
    payload = {
        "exact": float(exact.accuracy(test)),
        "majority": float(np.mean(test.column(position) == majority)),
    }
    return payload, {}


def _decode_dict(payload, arrays):
    return dict(payload)


def _compute_classify_private(params, deps, env):
    from repro.core.engine import GammaDiagonalPerturbation
    from repro.mining.classify import NaiveBayesClassifier

    train = DatasetSpec(**params["train"]).build()
    test = DatasetSpec(**params["test"]).build()
    gamma = params["gamma"]
    perturbed = GammaDiagonalPerturbation(train.schema, gamma).perturb(
        train, seed=resolve_seed(params["seed"])
    )
    private = NaiveBayesClassifier(
        train.schema, params["class_attribute"]
    ).fit_reconstructed(perturbed, gamma)
    return {"accuracy": float(private.accuracy(test))}, {}


_CELL_FUNCS = {
    "exact": (_compute_exact, decode_apriori),
    "mechanism": (_compute_mechanism, _decode_mechanism),
    "classify-ref": (_compute_classify_ref, _decode_dict),
    "classify-private": (_compute_classify_private, _decode_dict),
}


def _execute_cell(task):
    """Worker-side entry point: compute one cell from its task tuple."""
    func, params, deps, env = task
    reach(f"cell:{func}")
    compute, _ = _CELL_FUNCS[func]
    return compute(params, deps, env)


# ----------------------------------------------------------------------
# cell builders
# ----------------------------------------------------------------------
def exact_cell(dataset: DatasetSpec, min_support: float, env=None) -> Cell:
    """The exact-mining reference cell for one dataset."""
    params = {"dataset": dataset.spec(), "min_support": min_support}
    return Cell(
        name=f"exact:{dataset.name}:{_short_digest(params)}",
        func="exact",
        params=params,
        env=dict(env or {}),
    )


def _pipeline_signature(mechanism, config: ExperimentConfig):
    """The results-affecting part of the pipeline execution knobs.

    ``workers == 1`` runs are bit-identical for every chunk size, so
    they normalise to ``None``; multi-worker runs spawn per-chunk
    streams, so their output is a function of the chunk layout (see
    :mod:`repro.pipeline.executor`).  Whether a
    mechanism has a pipeline path at all is registry metadata
    (``mechanism_registry.get(...).pipeline``).
    """
    name = mechanism.name if isinstance(mechanism, MechanismSpec) else mechanism
    if not mechanism_registry.get(name).pipeline:
        return None
    if config.workers == 1:
        return None
    return {"seeding": "spawn", "chunk_size": int(config.chunk_size)}


def config_env(config: ExperimentConfig) -> dict:
    """The result-invariant execution knobs of a config, as cell env.

    Everything here is guaranteed (and tested) not to move any cell's
    numbers: the part of the worker layout that does is normalised
    into ``params`` by :func:`_pipeline_signature`.  Keeping the rest
    out of the cache key means a warm cache survives switching it.
    """
    return {"workers": config.workers, "chunk_size": config.chunk_size}


def mechanism_cell(
    dataset: DatasetSpec,
    mechanism,
    config: ExperimentConfig,
    seed_spec: dict,
    exact: Cell,
) -> Cell:
    """One mechanism × dataset × parameterisation grid cell.

    ``mechanism`` is a registered name or a
    :class:`~repro.mechanisms.MechanismSpec`.  Named mechanisms are
    labelled by their registry display name (so an alias such as
    ``"rangd"`` builds the ``"RAN-GD"`` cell) and key on exactly the
    config knobs their factory accepts -- the ones
    :func:`~repro.experiments.runner.run_mechanism` builds them with
    -- so the four paper mechanisms' cache keys are stable.  Spec
    mechanisms key on their *canonical spec*: every parameter (e.g. one
    per-attribute gamma of a composite) is in the key, so changing it
    invalidates exactly the affected cells.
    """
    params = {
        "dataset": dataset.spec(),
        "min_support": config.min_support,
        "protocol": config.protocol,
        "seed": seed_spec,
    }
    if isinstance(mechanism, MechanismSpec):
        label = mechanism_registry.display_name(mechanism.name)
        params["mechanism"] = mechanism.canonical()
    else:
        label = mechanism_registry.display_name(mechanism)
        params["mechanism"] = label
        params.update(
            mechanism_registry.accepted(mechanism, config.mechanism_defaults())
        )
    pipeline = _pipeline_signature(mechanism, config)
    if pipeline is not None:
        params["pipeline"] = pipeline
    env = config_env(config)
    return Cell(
        name=f"mech:{label}:{dataset.name}:{_short_digest(params)}",
        func="mechanism",
        params=params,
        deps=(exact.name,),
        env=env,
    )


def comparison_cells(dataset: DatasetSpec, config: ExperimentConfig):
    """The cells behind :func:`repro.experiments.runner.run_comparison`.

    Mechanism ``i`` receives spawn child ``i`` of ``config.seed`` over
    ``len(config.mechanisms)`` children -- the exact stream the serial
    comparison loop hands it -- so cell-wise results match the direct
    path.
    """
    exact = exact_cell(dataset, config.min_support, env=config_env(config))
    cells = [exact]
    for index, mechanism in enumerate(config.mechanisms):
        cells.append(
            mechanism_cell(
                dataset,
                mechanism,
                config,
                spawn_seed(config.seed, index, len(config.mechanisms)),
                exact,
            )
        )
    return exact, cells


def classify_ref_cell(
    train: DatasetSpec, test: DatasetSpec, class_attribute: int
) -> Cell:
    """Exact / majority-class reference accuracies (gamma-independent)."""
    params = {
        "train": train.spec(),
        "test": test.spec(),
        "class_attribute": int(class_attribute),
    }
    return Cell(
        name=f"classify-ref:{train.name}:{_short_digest(params)}",
        func="classify-ref",
        params=params,
    )


def classify_private_cell(
    train: DatasetSpec,
    test: DatasetSpec,
    class_attribute: int,
    gamma: float,
    seed_spec: dict,
) -> Cell:
    """Reconstruction-trained naive-Bayes accuracy at one gamma."""
    params = {
        "train": train.spec(),
        "test": test.spec(),
        "class_attribute": int(class_attribute),
        "gamma": float(gamma),
        "seed": seed_spec,
    }
    return Cell(
        name=f"classify-private:{train.name}:{_short_digest(params)}",
        func="classify-private",
        params=params,
    )


def require_int_seed(seed, what: str) -> int:
    """Reject seeds a cell cannot key on (cells seed themselves)."""
    if seed is None or isinstance(seed, (np.random.Generator, np.random.SeedSequence)):
        raise ExperimentError(
            f"{what} needs a literal integer seed to be cacheable; pass seed=<int>"
        )
    return int(seed)


# ----------------------------------------------------------------------
# the orchestrator
# ----------------------------------------------------------------------
class CacheStats:
    """Hit/miss accounting for one orchestrator lifetime."""

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.computed: dict[str, int] = {}

    @property
    def mechanism_runs(self) -> int:
        """Perturbation executions performed (0 on a fully warm run)."""
        return sum(
            count for func, count in self.computed.items() if func in PERTURBING_FUNCS
        )

    def record_computed(self, func: str) -> None:
        """Count one computed (cache-missed) cell of ``func``."""
        self.misses += 1
        self.computed[func] = self.computed.get(func, 0) + 1

    def summary(self) -> str:
        """One-line report for the CLI's stderr."""
        return (
            f"cache: {self.hits} hit(s), {self.misses} computed "
            f"({self.mechanism_runs} mechanism run(s))"
        )


class Orchestrator:
    """Runs cell DAGs against the store, optionally across processes.

    Parameters
    ----------
    store:
        The :class:`~repro.store.ResultStore` to consult/commit, or
        ``None`` to always compute (``--no-cache``).
    jobs:
        Worker processes for ready cells; ``1`` computes inline.
    force:
        Recompute even on a hit and overwrite the entry (``--force``).
    fingerprint:
        Code fingerprint override (tests); defaults to
        :func:`~repro.store.code_fingerprint` of the live source.
    """

    def __init__(
        self,
        store: ResultStore | None = None,
        jobs: int = 1,
        force: bool = False,
        fingerprint: str | None = None,
    ):
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        self.store = store
        self.jobs = int(jobs)
        self.force = bool(force)
        self.fingerprint = fingerprint or code_fingerprint()
        self.stats = CacheStats()
        self._memo: dict[str, object] = {}

    def key_for(self, cell: Cell) -> str:
        """The cell's content-addressed store key."""
        return cache_key(cell.key_spec(), self.fingerprint)

    # ------------------------------------------------------------------
    def _check_dag(self, cells: list[Cell]) -> dict[str, Cell]:
        by_name: dict[str, Cell] = {}
        for cell in cells:
            if cell.func not in _CELL_FUNCS:
                raise ExperimentError(f"unknown cell func {cell.func!r}")
            previous = by_name.get(cell.name)
            if previous is not None:
                if canonicalise(previous.key_spec()) != canonicalise(cell.key_spec()):
                    raise ExperimentError(
                        f"two different cells share the name {cell.name!r}"
                    )
                continue
            by_name[cell.name] = cell
        for cell in by_name.values():
            if len(cell.deps) > 1:
                # _task hands dep results to compute functions under the
                # single role "exact"; reject shapes that would silently
                # drop dependencies.
                raise ExperimentError(
                    f"cell {cell.name!r} has {len(cell.deps)} dependencies; "
                    "cells currently support at most one (the mining reference)"
                )
            for dep in cell.deps:
                if dep not in by_name:
                    raise ExperimentError(
                        f"cell {cell.name!r} depends on unknown cell {dep!r}"
                    )
        return by_name

    def _decode(self, cell: Cell, payload, arrays):
        _, decode = _CELL_FUNCS[cell.func]
        return decode(payload, arrays)

    def _meta(self, cell: Cell) -> dict:
        meta = {
            "cell": cell.name,
            "func": cell.func,
            "fingerprint": self.fingerprint,
        }
        dataset = cell.params.get("dataset") or cell.params.get("train")
        if dataset:
            meta["dataset"] = dataset["name"]
        if "mechanism" in cell.params:
            mechanism = cell.params["mechanism"]
            meta["mechanism"] = (
                mechanism["name"] if isinstance(mechanism, dict) else mechanism
            )
        return meta

    def _commit(self, cell: Cell, payload, arrays):
        if self.store is not None:
            self.store.put(
                self.key_for(cell), payload, arrays=arrays, meta=self._meta(cell)
            )
        self.stats.record_computed(cell.func)
        self._memo[cell.name] = self._decode(cell, payload, arrays)

    def _task(self, cell: Cell):
        # Dep results are passed by role: the single mining reference a
        # mechanism cell consumes is always called "exact".
        deps = {"exact": self._memo[dep] for dep in cell.deps}
        return cell.func, cell.params, deps, cell.env

    # ------------------------------------------------------------------
    def run(self, cells) -> dict[str, object]:
        """Execute a cell DAG; returns ``{cell name: decoded result}``.

        Cached cells are served from the store (verified reads);
        missing ones run -- concurrently when ``jobs > 1``, with cells
        becoming eligible as their dependencies land.  Results are
        independent of ``jobs`` and of scheduling order by the seeding
        contract above.
        """
        by_name = self._check_dag(list(cells))
        pending = {
            name: cell
            for name, cell in by_name.items()
            if name not in self._memo and not self._adopt(cell)
        }
        if pending:
            self._run_pending(pending)
            if self.store is not None:
                # One index rebuild per batch of commits (put is O(1)).
                self.store.refresh_manifest()
        return {name: self._memo[name] for name in by_name}

    def _adopt(self, cell: Cell) -> bool:
        """Serve ``cell`` from the store, if a result is committed there."""
        if self.force or self.store is None:
            return False
        cached = self.store.get(self.key_for(cell))
        if cached is None:
            return False
        self._memo[cell.name] = self._decode(cell, *cached)
        self.stats.hits += 1
        return True

    def _run_pending(self, pending: dict[str, Cell]) -> None:
        """Compute the pending cells, each once its dependency landed.

        One loop serves both layouts.  Ready cells are computed inline
        when one worker would do, and on a pool of at most
        ``min(jobs, len(pending))`` processes otherwise, whose results
        are harvested as they land so dependants become ready at once.
        """
        # Forked pools start every worker at the first submit, so never
        # ask for more workers than there are cells to hand them.
        jobs = min(self.jobs, len(pending))
        # ProcessPoolExecutor workers are non-daemonic, so a cell may
        # itself fan out (a DET-GD/RAN-GD run with config.workers > 1
        # opens a nested PerturbationPipeline pool).
        pool = ProcessPoolExecutor(jobs) if jobs > 1 else None
        in_flight: dict[object, Cell] = {}
        try:
            while pending or in_flight:
                ready = [
                    cell
                    for cell in pending.values()
                    if all(dep in self._memo for dep in cell.deps)
                ]
                if not ready and not in_flight:
                    raise ExperimentError(
                        f"dependency cycle among cells {sorted(pending)}"
                    )
                for cell in ready:
                    del pending[cell.name]
                    task = self._task(cell)
                    if pool is None:
                        self._commit(cell, *_execute_cell(task))
                    else:
                        in_flight[pool.submit(_execute_cell, task)] = cell
                if in_flight:
                    # .result() re-raises worker exceptions in the parent.
                    done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                    for future in done:
                        self._commit(in_flight.pop(future), *future.result())
        finally:
            if pool is not None:
                pool.shutdown()
