"""Experiment harness reproducing every table and figure of the paper.

* :mod:`repro.experiments.config` -- experiment configuration and the
  paper's default parameter values;
* :mod:`repro.experiments.runner` -- perturb-mine-evaluate pipeline for
  one mechanism on any in-memory dataset;
* :mod:`repro.experiments.tables` -- Tables 1-3;
* :mod:`repro.experiments.figures` -- Figures 1-4;
* :mod:`repro.experiments.sweeps` -- ablations beyond the paper;
* :mod:`repro.experiments.reporting` -- plain-text rendering of the
  result series (the repo has no plotting dependency; figures are
  emitted as the number series behind each curve);
* :mod:`repro.experiments.orchestrator` -- the cell decomposition of
  the evaluation grid, run DAG-aware against the content-addressed
  result store (:mod:`repro.store`), optionally across processes;
  Figures 1-3, Table 3 and the sweeps run as cells, on an in-memory
  orchestrator when the caller passes none;
* :mod:`repro.experiments.cli` -- the ``frapp`` command /
  ``python -m repro.experiments``.
"""

from repro.experiments.config import ExperimentConfig, PAPER_GAMMA, PAPER_MIN_SUPPORT
from repro.experiments.orchestrator import (
    Cell,
    DatasetSpec,
    Orchestrator,
    comparison_cells,
    exact_cell,
    mechanism_cell,
)
from repro.experiments.figures import (
    figure1,
    figure2,
    figure3_posterior,
    figure3_support_error,
    figure4,
)
from repro.experiments.runner import MechanismRun, run_mechanism, run_comparison
from repro.experiments.sweeps import (
    classification_sweep,
    gamma_sweep,
    sample_size_sweep,
)
from repro.experiments.tables import table1, table2, table3

__all__ = [
    "Cell",
    "DatasetSpec",
    "ExperimentConfig",
    "MechanismRun",
    "Orchestrator",
    "PAPER_GAMMA",
    "PAPER_MIN_SUPPORT",
    "classification_sweep",
    "comparison_cells",
    "exact_cell",
    "mechanism_cell",
    "figure1",
    "figure2",
    "figure3_posterior",
    "figure3_support_error",
    "figure4",
    "gamma_sweep",
    "run_comparison",
    "sample_size_sweep",
    "run_mechanism",
    "table1",
    "table2",
    "table3",
]
