"""Perturb-mine-evaluate pipelines.

:func:`run_mechanism` executes one mechanism end to end on one dataset
and scores it against exact mining -- what every mechanism cell of
:mod:`repro.experiments.orchestrator` computes; :func:`run_comparison`
does so for a whole mechanism line-up, sharing the exact-mining
reference.  Both take any in-memory dataset, whereas the figure, table
and sweep builders take cache-keyable dataset specs or names.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.data.dataset import CategoricalDataset
from repro.experiments.config import ExperimentConfig
from repro.mechanisms import MechanismSpec, from_spec
from repro.mechanisms import registry as mechanism_registry
from repro.mechanisms.base import Mechanism
from repro.metrics.accuracy import MiningErrors, evaluate_mining
from repro.mining.apriori import AprioriResult
from repro.mining.reconstructing import MechanismMiner, make_miner, mine_exact
from repro.stats.rng import spawn_generators


@dataclass
class MechanismRun:
    """Outcome of one mechanism on one dataset.

    Attributes
    ----------
    mechanism:
        The mechanism's display name (``DET-GD``, ...).
    result:
        The mining result over *estimated* supports.
    errors:
        Per-length support and identity errors versus exact mining.
    seconds:
        Wall-clock time of perturb+mine (reconstruction included).
    """

    mechanism: str
    result: AprioriResult
    errors: MiningErrors
    seconds: float


#: Per-mechanism config knobs forwarded when a mechanism is named by
#: string (spec-built mechanisms carry their parameters themselves).
_CONFIG_KWARGS = {
    "ran-gd": lambda config: {"relative_alpha": config.relative_alpha},
    "c&p": lambda config: {"max_cut": config.max_cut},
}


def _build_miner(mechanism, schema, config: ExperimentConfig) -> MechanismMiner:
    """Resolve a mechanism reference into a driver.

    ``mechanism`` may be a registered name (resolved through the
    mechanism registry; unknown names raise
    :class:`~repro.exceptions.UnknownMechanismError` listing what is
    registered), a :class:`~repro.mechanisms.MechanismSpec` (or its
    ``{"name", "params"}`` dict form), or a live
    :class:`~repro.mechanisms.Mechanism`.
    """
    if isinstance(mechanism, Mechanism):
        return MechanismMiner(mechanism)
    if isinstance(mechanism, (MechanismSpec, dict)):
        return MechanismMiner(from_spec(mechanism, schema))
    entry = mechanism_registry.get(mechanism)
    extra = _CONFIG_KWARGS.get(entry.key, lambda config: {})(config)
    return make_miner(entry.key, schema, config.gamma, **extra)


def run_mechanism(
    dataset: CategoricalDataset,
    mechanism,
    config: ExperimentConfig,
    true_result: AprioriResult | None = None,
    seed=None,
) -> MechanismRun:
    """Perturb ``dataset`` with one mechanism, mine, and score.

    ``mechanism`` is a registered name, a
    :class:`~repro.mechanisms.MechanismSpec` (self-describing
    parameters, e.g. a per-attribute composite), or a live
    :class:`~repro.mechanisms.Mechanism`.
    """
    if true_result is None:
        true_result = mine_exact(dataset, config.min_support)
    miner = _build_miner(mechanism, dataset.schema, config)
    effective_seed = seed if seed is not None else config.seed
    # Only pipeline-capable mechanisms (the gamma-diagonal engines and
    # columnar composites) have a chunked/multi-worker execution path;
    # MASK and C&P always run direct.
    pipeline_kwargs = {}
    if miner.supports_pipeline and (
        config.workers != 1 or config.chunk_size is not None
    ):
        pipeline_kwargs = {
            "workers": config.workers,
            "chunk_size": config.chunk_size,
        }
    start = time.perf_counter()
    if config.protocol == "per-level":
        result = miner.mine_per_level(
            dataset,
            config.min_support,
            true_result,
            seed=effective_seed,
            **pipeline_kwargs,
        )
    else:
        result = miner.mine(
            dataset, config.min_support, seed=effective_seed, **pipeline_kwargs
        )
    elapsed = time.perf_counter() - start
    errors = evaluate_mining(true_result, result)
    return MechanismRun(
        mechanism=miner.name, result=result, errors=errors, seconds=elapsed
    )


def run_comparison(
    dataset: CategoricalDataset, config: ExperimentConfig | None = None
) -> dict[str, MechanismRun]:
    """All configured mechanisms on one dataset, sharing the reference.

    Each mechanism receives an independent child RNG stream of
    ``config.seed`` so the comparison is reproducible yet uncorrelated.
    """
    config = config or ExperimentConfig()
    true_result = mine_exact(dataset, config.min_support)
    streams = spawn_generators(config.seed, len(config.mechanisms))
    runs = {}
    for mechanism, stream in zip(config.mechanisms, streams):
        runs[mechanism] = run_mechanism(
            dataset, mechanism, config, true_result=true_result, seed=stream
        )
    return runs
