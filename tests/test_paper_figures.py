"""The shapes of paper Figures 1-4 and of the ablation sweeps, at paper
scale (50k CENSUS and 100k HEALTH records).

* Figures 1 and 2: the gamma-diagonal mechanisms keep finding itemsets
  at every length with bounded support error, while the MASK and C&P
  errors explode with itemset length.
* Figure 3 (b, c): RAN-GD's length-4 support error stays within a
  moderate factor of DET-GD's across the whole randomization range.
* Figure 4: DET-GD's condition number is flat at ``1 + |S_U|/(gamma-1)``,
  MASK's grows exponentially with length and C&P's explodes beyond its
  cut size.
* The sweeps: stricter privacy (smaller gamma) and fewer records cost
  accuracy, and the private classifier improves with gamma without
  beating the exact one.

Figure 3(a)'s worked example is pinned in ``test_experiments.py`` and
Table 3's counts in ``test_paper_datasets.py``.
"""

import math

import numpy as np
import pytest

from repro.data.census import CENSUS_N_RECORDS, generate_census
from repro.data.health import HEALTH_N_RECORDS, generate_health
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import figure3_support_error, figure4
from repro.experiments.orchestrator import DatasetSpec
from repro.experiments.runner import run_mechanism
from repro.experiments.sweeps import (
    classification_sweep,
    gamma_sweep,
    sample_size_sweep,
)
from repro.mining.reconstructing import mine_exact

pytestmark = pytest.mark.slow

SWEEP_CONFIG = ExperimentConfig(seed=20050408)


def error_panels(dataset, seed):
    """Per-mechanism ``MiningErrors`` of one Figure-1/2 run."""
    config = ExperimentConfig(seed=seed)
    truth = mine_exact(dataset, config.min_support)
    return {
        mechanism: run_mechanism(dataset, mechanism, config, true_result=truth).errors
        for mechanism in config.mechanisms
    }


def test_figure1_census_shape():
    errors = error_panels(generate_census(), seed=20050405)
    rho = {mechanism: e.rho for mechanism, e in errors.items()}
    assert rho["MASK"][6] > 1e4, "MASK support error explodes (paper ~1e5)"
    assert rho["C&P"][6] > 300, "C&P support error explodes beyond its cut"
    assert rho["DET-GD"][6] < 300, "DET-GD support error stays bounded"
    assert rho["MASK"][3] > rho["DET-GD"][3], "crossover by length 3"
    assert errors["DET-GD"].sigma_minus[6] < 60.0, "DET-GD finds length 6"


def test_figure2_health_shape():
    errors = error_panels(generate_health(), seed=20050406)
    rho = {mechanism: e.rho for mechanism, e in errors.items()}
    sigma_minus = {mechanism: e.sigma_minus for mechanism, e in errors.items()}
    assert rho["MASK"][7] > 1e4, "MASK support error explodes (paper ~1e5-1e6)"
    assert rho["C&P"][7] > 300, "C&P support error explodes beyond its cut"
    assert rho["DET-GD"][7] < 300, "DET-GD support error stays bounded"
    assert rho["MASK"][3] > rho["DET-GD"][3], "crossover by length 3"
    assert sigma_minus["DET-GD"][7] < 70.0, "DET-GD finds length 7"
    assert sigma_minus["C&P"][7] > sigma_minus["DET-GD"][7], "C&P degrades more"


@pytest.mark.parametrize(
    "dataset_name, n_records",
    [("CENSUS", CENSUS_N_RECORDS), ("HEALTH", HEALTH_N_RECORDS)],
)
def test_figure3_ran_gd_error_tracks_det_gd(dataset_name, n_records):
    series = figure3_support_error(
        dataset_name,
        length=4,
        alphas=[0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0],
        config=ExperimentConfig(seed=20050407),
        n_records=n_records,
    )
    det = next(iter(series["DET-GD"].values()))
    ran = [v for v in series["RAN-GD"].values() if not np.isnan(v)]
    assert ran, "RAN-GD produced estimates at length 4"
    assert max(ran) < max(5.0 * det, det + 100.0)


@pytest.mark.parametrize("dataset_name, flat", [("CENSUS", 112.1), ("HEALTH", 417.7)])
def test_figure4_condition_numbers(dataset_name, flat):
    series = figure4(dataset_name)
    det = series["DET-GD"]
    assert all(v == pytest.approx(flat, abs=0.1) for v in det.values())
    assert series["RAN-GD"] == det, "RAN-GD inverts the same expected matrix"
    max_len = max(det)
    assert series["MASK"][max_len] > 1e5, "MASK grows exponentially"
    assert series["C&P"][max_len] > 1e6, "C&P explodes beyond its cut size"
    assert series["MASK"][1] < det[1], "crossover: MASK starts below DET-GD"


def test_gamma_sweep_strictest_privacy_is_least_accurate():
    series = gamma_sweep(
        DatasetSpec.from_name("CENSUS", 25_000), length=4, config=SWEEP_CONFIG
    )
    valid = {g: v for g, v in series["rho"].items() if not math.isnan(v)}
    assert valid[min(valid)] > valid[max(valid)]


def test_sample_size_sweep_error_shrinks_with_n():
    series = sample_size_sweep(
        "CENSUS", sizes=(5_000, 20_000, 50_000), config=SWEEP_CONFIG
    )
    assert series["rho"][50_000] < series["rho"][5_000]


def test_classification_sweep_improves_with_gamma():
    series = classification_sweep(
        DatasetSpec.from_name("HEALTH", 40_000, seed=11),
        DatasetSpec.from_name("HEALTH", 10_000, seed=12),
        "HEALTH",
        gammas=(9.0, 19.0, 49.0, 199.0),
        seed=13,
    )
    private = series["private"]
    exact = next(iter(series["exact"].values()))
    assert private[199.0] > private[9.0], "looser privacy, better classifier"
    assert private[199.0] <= exact + 0.02, "private never beats exact (materially)"
