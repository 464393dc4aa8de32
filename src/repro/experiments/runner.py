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
from repro.mechanisms import resolve
from repro.metrics.accuracy import MiningErrors, evaluate_mining
from repro.mining.apriori import AprioriResult, apriori
from repro.mining.reconstructing import mine_exact, mine_per_level
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


def run_mechanism(
    dataset: CategoricalDataset,
    mechanism,
    config: ExperimentConfig,
    true_result: AprioriResult | None = None,
    seed=None,
) -> MechanismRun:
    """Perturb ``dataset`` with one mechanism, mine, and score.

    ``mechanism`` is any designator :func:`repro.mechanisms.resolve`
    takes: a registered name (built with the config's ``gamma``,
    ``relative_alpha`` and ``max_cut`` where its factory takes them), a
    :class:`~repro.mechanisms.MechanismSpec` (self-describing
    parameters, e.g. a per-attribute composite), or a live
    :class:`~repro.mechanisms.Mechanism`.
    """
    if true_result is None:
        true_result = mine_exact(dataset, config.min_support)
    mechanism = resolve(
        mechanism, dataset.schema, defaults=config.mechanism_defaults()
    )
    # Only pipeline-capable mechanisms (the gamma-diagonal engines and
    # columnar composites) have a chunked/multi-worker execution path;
    # MASK and C&P always run direct.
    pipeline_kwargs = {}
    if mechanism.supports_pipeline:
        pipeline_kwargs = {
            "workers": config.workers,
            "chunk_size": config.chunk_size,
        }
    start = time.perf_counter()
    estimator = mechanism.build_estimator(
        dataset,
        seed=seed if seed is not None else config.seed,
        **pipeline_kwargs,
    )
    if config.protocol == "per-level":
        result = mine_per_level(
            estimator, dataset.schema, config.min_support, true_result
        )
    else:
        result = apriori(estimator, dataset.schema, config.min_support)
    elapsed = time.perf_counter() - start
    errors = evaluate_mining(true_result, result)
    return MechanismRun(
        mechanism=mechanism.display, result=result, errors=errors, seconds=elapsed
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
