"""Parameter-sweep ablations beyond the paper's figures.

The paper fixes ``gamma = 19`` and the full dataset sizes; these sweeps
quantify the design space around that operating point:

* :func:`gamma_sweep` -- accuracy versus the privacy knob ``gamma``
  (tighter privacy -> smaller ``gamma`` -> fewer unperturbed records ->
  worse reconstruction);
* :func:`sample_size_sweep` -- accuracy versus ``N`` (reconstruction
  noise shrinks as ``1/sqrt(N)``);
* :func:`classification_sweep` -- the future-work task: naive-Bayes
  accuracy trained on reconstructed statistics versus ``gamma``.

Each sweep point is an independent experiment cell, so datasets are
given as a :class:`~repro.experiments.orchestrator.DatasetSpec` or a
canonical dataset name, and seeds as integers.  The cells run on the
caller's :class:`~repro.experiments.orchestrator.Orchestrator`
(concurrent and memoised in the result store) or, given none, on an
in-memory ``Orchestrator()``.  Every point seeds itself -- an integer
seed or a ``SeedSequence``-spawned child stream -- so cached, fresh,
serial and parallel runs all produce the same numbers.  An arbitrary
in-memory dataset cannot be cache-keyed: sweep it with
:func:`~repro.experiments.runner.run_mechanism`.
"""

from __future__ import annotations

from dataclasses import replace

from repro.exceptions import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.orchestrator import (
    Cell,
    DatasetSpec,
    Orchestrator,
    classify_private_cell,
    classify_ref_cell,
    exact_cell,
    int_seed,
    mechanism_cell,
    require_int_seed,
    spawn_seed,
)

#: Default privacy levels for the gamma sweeps.
DEFAULT_GAMMAS = (5.0, 9.0, 19.0, 49.0, 99.0)


def _as_spec(dataset, what: str) -> DatasetSpec:
    if isinstance(dataset, DatasetSpec):
        return dataset
    if isinstance(dataset, str):
        return DatasetSpec.from_name(dataset)
    raise ExperimentError(
        f"{what} needs a DatasetSpec or a dataset name: its points are "
        "cache-keyed cells, and in-memory datasets cannot be keyed "
        "(use run_mechanism for those)"
    )


def _error_series(results: dict, cells: dict, length: int) -> dict:
    """``{"rho" | "sigma_minus": {x: value}}`` from mechanism cells by x."""
    return {
        metric: {
            x: results[cell.name][metric].get(length, float("nan"))
            for x, cell in cells.items()
        }
        for metric in ("rho", "sigma_minus")
    }


def gamma_sweep(
    dataset: DatasetSpec | str,
    gammas=DEFAULT_GAMMAS,
    mechanism: str = "DET-GD",
    length: int = 4,
    config: ExperimentConfig | None = None,
    orchestrator=None,
) -> dict[str, dict[float, float]]:
    """Support and identity error at one itemset length versus gamma.

    Returns ``{"rho" | "sigma_minus": {gamma: value}}``.  Each point
    runs ``config`` with only ``gamma`` replaced.
    """
    base = config or ExperimentConfig()
    spec = _as_spec(dataset, "gamma_sweep")
    exact = exact_cell(spec, base.min_support)
    cells: dict[float, Cell] = {
        float(gamma): mechanism_cell(
            spec,
            mechanism,
            replace(base, gamma=float(gamma)),
            int_seed(base.seed),
            exact,
        )
        for gamma in gammas
    }
    results = (orchestrator or Orchestrator()).run([exact, *cells.values()])
    return _error_series(results, cells, length)


def sample_size_sweep(
    generator: DatasetSpec | str,
    sizes,
    length: int = 4,
    config: ExperimentConfig | None = None,
    orchestrator=None,
) -> dict[str, dict[int, float]]:
    """DET-GD error at one itemset length versus dataset size.

    ``generator`` names the dataset: a canonical name (``"CENSUS"`` /
    ``"HEALTH"``, default generator seed) or a ``DatasetSpec`` whose
    size each of ``sizes`` replaces.  Every size is a pair of cells:
    its exact-mining reference and the DET-GD run.
    """
    config = config or ExperimentConfig()
    sizes = [int(size) for size in sizes]
    for size in sizes:
        if size < 100:
            raise ExperimentError(f"sample size {size} too small to mine")
    base = _as_spec(generator, "sample_size_sweep")
    cells: dict[int, Cell] = {}
    dag: list[Cell] = []
    for size in sizes:
        spec = replace(base, n_records=size)
        exact = exact_cell(spec, config.min_support)
        cells[size] = mechanism_cell(
            spec, "DET-GD", config, int_seed(config.seed), exact
        )
        dag += [exact, cells[size]]
    results = (orchestrator or Orchestrator()).run(dag)
    return _error_series(results, cells, length)


def classification_sweep(
    train: DatasetSpec | str,
    test: DatasetSpec | str,
    class_attribute,
    gammas=DEFAULT_GAMMAS,
    seed: int = ExperimentConfig.seed,
    orchestrator=None,
) -> dict[str, dict[float, float]]:
    """Naive-Bayes accuracy trained on reconstructed statistics vs gamma.

    Returns ``{"private": {gamma: accuracy}, "exact": {gamma: accuracy},
    "majority": {gamma: accuracy}}`` with the exact-training and
    majority-class accuracies repeated as flat reference lines.

    Each gamma's perturbation draws from its own spawned child stream
    of ``seed`` (the cell discipline), so sweep points are independent
    and reproducible regardless of evaluation order.
    """
    gammas = [float(gamma) for gamma in gammas]
    train_spec = _as_spec(train, "classification_sweep")
    test_spec = _as_spec(test, "classification_sweep")
    root = require_int_seed(seed, "classification_sweep")
    position = (
        train_spec.schema().position_of(class_attribute)
        if isinstance(class_attribute, str)
        else int(class_attribute)
    )
    reference = classify_ref_cell(train_spec, test_spec, position)
    cells: dict[float, Cell] = {
        gamma: classify_private_cell(
            train_spec,
            test_spec,
            position,
            gamma,
            spawn_seed(root, index, len(gammas)),
        )
        for index, gamma in enumerate(gammas)
    }
    results = (orchestrator or Orchestrator()).run([reference, *cells.values()])
    ref = results[reference.name]
    return {
        "private": {
            gamma: results[cell.name]["accuracy"] for gamma, cell in cells.items()
        },
        "exact": dict.fromkeys(cells, ref["exact"]),
        "majority": dict.fromkeys(cells, ref["majority"]),
    }
