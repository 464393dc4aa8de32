"""Direct, cell-free forms of the figure, table and sweep builders.

Test oracles: ``repro.experiments`` evaluates every artefact as
orchestrator cells.  These are the straightforward loops over
``mine_exact``, ``run_mechanism`` and ``run_comparison`` on
materialised datasets that the cells must reproduce bit for bit.  A
per-point configuration changes only the swept knob
(``dataclasses.replace``), so every other field -- protocol, workers,
chunk size -- reaches every point.
"""

from dataclasses import replace

import numpy as np

from repro.core.engine import GammaDiagonalPerturbation
from repro.experiments.config import ExperimentConfig
from repro.experiments.orchestrator import DatasetSpec
from repro.experiments.runner import run_comparison, run_mechanism
from repro.mining.classify import NaiveBayesClassifier
from repro.mining.reconstructing import mine_exact
from repro.stats.rng import spawn_generators


def comparison_series(dataset_name, config, n_records=None):
    """Figures 1/2: ``{metric: {mechanism: {length: value}}}``."""
    dataset = DatasetSpec.from_name(dataset_name, n_records).build()
    runs = run_comparison(dataset, config)
    return {
        "rho": {name: run.errors.rho for name, run in runs.items()},
        "sigma_minus": {name: run.errors.sigma_minus for name, run in runs.items()},
        "sigma_plus": {name: run.errors.sigma_plus for name, run in runs.items()},
    }


def figure3_support_error(
    dataset_name, length=4, alphas=None, config=None, n_records=None
):
    """Figure 3(b, c): ``{"RAN-GD" | "DET-GD": {relative_alpha: rho}}``."""
    config = config or ExperimentConfig()
    if alphas is None:
        alphas = np.linspace(0.0, 1.0, 6)
    dataset = DatasetSpec.from_name(dataset_name, n_records).build()
    true_result = mine_exact(dataset, config.min_support)
    det = run_mechanism(dataset, "DET-GD", config, true_result=true_result)
    det_rho = det.errors.rho.get(length, float("nan"))
    series = {"RAN-GD": {}, "DET-GD": {}}
    for rel in alphas:
        rel = float(rel)
        ran_config = replace(config, relative_alpha=rel)
        run = run_mechanism(dataset, "RAN-GD", ran_config, true_result=true_result)
        series["RAN-GD"][rel] = run.errors.rho.get(length, float("nan"))
        series["DET-GD"][rel] = det_rho
    return series


def table3(min_support=0.02, n_census=None, n_health=None):
    """Table 3: frequent itemsets per length for both datasets."""
    counts = {}
    for name, n_records in (("CENSUS", n_census), ("HEALTH", n_health)):
        dataset = DatasetSpec.from_name(name, n_records).build()
        counts[name] = mine_exact(dataset, min_support).counts_by_length()
    return counts


def gamma_sweep(dataset, gammas, mechanism="DET-GD", length=4, config=None):
    """``{"rho" | "sigma_minus": {gamma: value}}`` on an in-memory dataset."""
    base = config or ExperimentConfig()
    true_result = mine_exact(dataset, base.min_support)
    series = {"rho": {}, "sigma_minus": {}}
    for gamma in gammas:
        config_g = replace(base, gamma=float(gamma))
        run = run_mechanism(dataset, mechanism, config_g, true_result=true_result)
        series["rho"][float(gamma)] = run.errors.rho.get(length, float("nan"))
        series["sigma_minus"][float(gamma)] = run.errors.sigma_minus.get(
            length, float("nan")
        )
    return series


def sample_size_sweep(generator, sizes, length=4, config=None):
    """``{"rho" | "sigma_minus": {size: value}}``; ``generator(n)`` builds data."""
    config = config or ExperimentConfig()
    series = {"rho": {}, "sigma_minus": {}}
    for size in sizes:
        dataset = generator(size)
        true_result = mine_exact(dataset, config.min_support)
        run = run_mechanism(dataset, "DET-GD", config, true_result=true_result)
        series["rho"][size] = run.errors.rho.get(length, float("nan"))
        series["sigma_minus"][size] = run.errors.sigma_minus.get(length, float("nan"))
    return series


def classification_sweep(train, test, class_attribute, gammas, seed):
    """``{"private" | "exact" | "majority": {gamma: accuracy}}``."""
    gammas = [float(gamma) for gamma in gammas]
    exact = NaiveBayesClassifier(train.schema, class_attribute).fit(train)
    exact_accuracy = exact.accuracy(test)
    class_pos = exact.class_attribute
    majority = int(np.bincount(train.column(class_pos)).argmax())
    majority_accuracy = float(np.mean(test.column(class_pos) == majority))

    streams = spawn_generators(seed, len(gammas))
    series = {"private": {}, "exact": {}, "majority": {}}
    for gamma, stream in zip(gammas, streams):
        perturbed = GammaDiagonalPerturbation(train.schema, gamma).perturb(
            train, seed=stream
        )
        private = NaiveBayesClassifier(train.schema, class_attribute).fit_reconstructed(
            perturbed, gamma
        )
        series["private"][gamma] = private.accuracy(test)
        series["exact"][gamma] = exact_accuracy
        series["majority"][gamma] = majority_accuracy
    return series
