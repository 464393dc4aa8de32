"""Tests for repro.experiments.sweeps."""

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.orchestrator import DatasetSpec
from repro.experiments.sweeps import (
    classification_sweep,
    gamma_sweep,
    sample_size_sweep,
)


@pytest.fixture(scope="module")
def small_census():
    return DatasetSpec.from_name("CENSUS", 8000, seed=5)


class TestGammaSweep:
    def test_structure(self, small_census):
        series = gamma_sweep(
            small_census,
            gammas=(9.0, 99.0),
            config=ExperimentConfig(seed=1),
            length=3,
        )
        assert set(series) == {"rho", "sigma_minus"}
        assert set(series["rho"]) == {9.0, 99.0}

    def test_accuracy_improves_with_gamma(self, small_census):
        series = gamma_sweep(
            small_census, gammas=(5.0, 199.0), config=ExperimentConfig(seed=2), length=3
        )
        assert series["rho"][199.0] < series["rho"][5.0]

    def test_invalid_gamma(self, small_census):
        with pytest.raises(ExperimentError):
            gamma_sweep(small_census, gammas=(1.0,))


class TestSampleSizeSweep:
    def test_structure_and_trend(self):
        series = sample_size_sweep(
            "CENSUS", sizes=(4000, 30_000), config=ExperimentConfig(seed=3)
        )
        assert set(series["rho"]) == {4000, 30_000}
        assert series["rho"][30_000] < series["rho"][4000]

    def test_too_small_rejected(self):
        with pytest.raises(ExperimentError):
            sample_size_sweep("CENSUS", sizes=(10,))


class TestClassificationSweep:
    def test_structure(self):
        train = DatasetSpec.from_name("HEALTH", 6000, seed=6)
        test = DatasetSpec.from_name("HEALTH", 2000, seed=7)
        series = classification_sweep(
            train, test, "HEALTH", gammas=(19.0, 99.0), seed=8
        )
        assert set(series) == {"private", "exact", "majority"}
        exact_values = set(series["exact"].values())
        assert len(exact_values) == 1, "exact accuracy is a flat reference"
        for acc in series["private"].values():
            assert 0.0 <= acc <= 1.0

    def test_reference_lines_sensible(self):
        train = DatasetSpec.from_name("HEALTH", 6000, seed=9)
        test = DatasetSpec.from_name("HEALTH", 2000, seed=10)
        series = classification_sweep(train, test, "HEALTH", gammas=(49.0,), seed=11)
        exact = next(iter(series["exact"].values()))
        majority = next(iter(series["majority"].values()))
        assert exact >= majority
