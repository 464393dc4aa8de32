"""Figures 1-4 of the paper, as the number series behind each curve.

The repo carries no plotting dependency; each ``figureN`` function
returns the exact series a plotting script would draw (and
:mod:`repro.experiments.reporting` renders them as text).
"""

from __future__ import annotations

import numpy as np

from repro.core.randomized import RandomizedGammaDiagonal
from repro.experiments.config import ExperimentConfig, PAPER_GAMMA, PAPER_RHO1
from repro.experiments.orchestrator import (
    DatasetSpec,
    comparison_cells,
    config_env,
    exact_cell,
    int_seed,
    mechanism_cell,
)
from repro.experiments.runner import run_comparison, run_mechanism
from repro.mechanisms.registry import display_name
from repro.metrics.conditioning import condition_numbers_by_length
from repro.mining.reconstructing import mine_exact

#: Registry display names of the two gamma-diagonal engines -- the
#: mechanisms Figure 3(b, c) sweeps (plot labels come from the registry
#: metadata, not from string literals scattered per figure).
_DET = display_name("det-gd")
_RAN = display_name("ran-gd")


def comparison_figure_cells(
    dataset_name: str, config: ExperimentConfig, n_records=None
) -> list:
    """The cell DAG behind one Figure-1/2 style comparison panel set."""
    spec = DatasetSpec.from_name(dataset_name, n_records)
    _, cells = comparison_cells(spec, config)
    return cells


def figure3_error_cells(
    dataset_name: str,
    alphas=None,
    config: ExperimentConfig | None = None,
    n_records=None,
):
    """The cells behind Figure 3(b, c): ``(exact, det, {alpha: cell})``."""
    config = config or ExperimentConfig()
    if alphas is None:
        alphas = np.linspace(0.0, 1.0, 6)
    spec = DatasetSpec.from_name(dataset_name, n_records)
    exact = exact_cell(spec, config.min_support, env=config_env(config))
    det = mechanism_cell(spec, _DET, config, int_seed(config.seed), exact)
    ran_cells = {
        float(rel): mechanism_cell(
            spec,
            _RAN,
            _ran_gd_config(config, float(rel)),
            int_seed(config.seed),
            exact,
        )
        for rel in alphas
    }
    return exact, det, ran_cells


def _comparison_series(
    dataset_name: str, config: ExperimentConfig, n_records=None, orchestrator=None
):
    """``{metric: {mechanism: {length: value}}}`` for one dataset."""
    if orchestrator is not None:
        cells = comparison_figure_cells(dataset_name, config, n_records)
        results = orchestrator.run(cells)
        runs = {
            mechanism: results[cell.name]
            for mechanism, cell in zip(config.mechanisms, cells[1:])
        }
        return {
            "rho": {name: run["rho"] for name, run in runs.items()},
            "sigma_minus": {name: run["sigma_minus"] for name, run in runs.items()},
            "sigma_plus": {name: run["sigma_plus"] for name, run in runs.items()},
        }
    dataset = DatasetSpec.from_name(dataset_name, n_records).build()
    runs = run_comparison(dataset, config)
    return {
        "rho": {name: run.errors.rho for name, run in runs.items()},
        "sigma_minus": {name: run.errors.sigma_minus for name, run in runs.items()},
        "sigma_plus": {name: run.errors.sigma_plus for name, run in runs.items()},
    }


def figure1(config: ExperimentConfig | None = None, n_records=None, orchestrator=None):
    """Fig. 1: support error and identity errors on CENSUS.

    Returns ``{"rho" | "sigma_minus" | "sigma_plus":
    {mechanism: {length: value}}}`` -- panels (a), (b), (c).  With an
    :class:`~repro.experiments.orchestrator.Orchestrator`, each
    mechanism is a cached cell (same numbers, memoised and parallel).
    """
    return _comparison_series(
        "CENSUS", config or ExperimentConfig(), n_records, orchestrator
    )


def figure2(config: ExperimentConfig | None = None, n_records=None, orchestrator=None):
    """Fig. 2: the same three panels on HEALTH."""
    return _comparison_series(
        "HEALTH", config or ExperimentConfig(), n_records, orchestrator
    )


def figure3_posterior(
    n: int,
    gamma: float = PAPER_GAMMA,
    prior: float = PAPER_RHO1,
    alphas=None,
) -> dict[str, dict[float, float]]:
    """Fig. 3(a): posterior-probability range versus ``alpha/(gamma x)``.

    Returns ``{"rho2_minus" | "rho2" | "rho2_plus":
    {relative_alpha: value}}`` (the three curves of the panel).
    """
    if alphas is None:
        alphas = np.linspace(0.0, 1.0, 11)
    series = {"rho2_minus": {}, "rho2": {}, "rho2_plus": {}}
    for rel in alphas:
        rel = float(rel)
        randomized = RandomizedGammaDiagonal.from_relative_alpha(n, gamma, rel)
        lo, mid, hi = randomized.posterior_range(prior)
        series["rho2_minus"][rel] = lo
        series["rho2"][rel] = mid
        series["rho2_plus"][rel] = hi
    return series


def _ran_gd_config(config: ExperimentConfig, rel: float) -> ExperimentConfig:
    """The per-alpha RAN-GD configuration of Figure 3(b, c)."""
    return ExperimentConfig(
        gamma=config.gamma,
        min_support=config.min_support,
        relative_alpha=rel,
        max_cut=config.max_cut,
        mechanisms=config.mechanisms,
        seed=config.seed,
    )


def figure3_support_error(
    dataset_name: str,
    length: int = 4,
    alphas=None,
    config: ExperimentConfig | None = None,
    n_records=None,
    orchestrator=None,
) -> dict[str, dict[float, float]]:
    """Fig. 3(b, c): RAN-GD support error at one itemset length vs alpha.

    Returns ``{"RAN-GD": {relative_alpha: rho}, "DET-GD": {...}}`` with
    the DET-GD value repeated as the flat reference line, exactly like
    the paper's panels.
    """
    config = config or ExperimentConfig()
    if alphas is None:
        alphas = np.linspace(0.0, 1.0, 6)
    if orchestrator is not None:
        exact, det, ran_cells = figure3_error_cells(
            dataset_name, alphas, config, n_records
        )
        results = orchestrator.run([exact, det, *ran_cells.values()])
        det_rho = results[det.name]["rho"].get(length, float("nan"))
        series = {_RAN: {}, _DET: {}}
        for rel, cell in ran_cells.items():
            series[_RAN][rel] = results[cell.name]["rho"].get(length, float("nan"))
            series[_DET][rel] = det_rho
        return series
    dataset = DatasetSpec.from_name(dataset_name, n_records).build()
    true_result = mine_exact(dataset, config.min_support)
    det = run_mechanism(dataset, _DET, config, true_result=true_result)
    det_rho = det.errors.rho.get(length, float("nan"))
    series = {_RAN: {}, _DET: {}}
    for rel in alphas:
        rel = float(rel)
        run = run_mechanism(
            dataset, _RAN, _ran_gd_config(config, rel), true_result=true_result
        )
        series[_RAN][rel] = run.errors.rho.get(length, float("nan"))
        series[_DET][rel] = det_rho
    return series


def figure4(
    dataset_name: str, gamma: float = PAPER_GAMMA, max_cut: int = 3
) -> dict[str, dict[int, float]]:
    """Fig. 4: reconstruction-matrix condition numbers vs itemset length.

    Purely analytic (no data pass); returns
    ``{mechanism: {length: condition_number}}``.
    """
    schema = DatasetSpec.from_name(dataset_name).schema()
    return condition_numbers_by_length(schema, gamma, max_cut=max_cut)
