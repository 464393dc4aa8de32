"""Tests for repro.baselines.additive_noise (Agrawal-Srikant 2000)."""

import numpy as np
import pytest

from repro.baselines.additive_noise import AdditiveNoisePerturbation
from repro.exceptions import DataError, ReconstructionError


class TestConstruction:
    def test_validation(self):
        with pytest.raises(DataError):
            AdditiveNoisePerturbation(0.0)
        with pytest.raises(DataError):
            AdditiveNoisePerturbation(1.0, kind="laplace")


class TestPerturbation:
    def test_uniform_noise_bounds(self, rng):
        op = AdditiveNoisePerturbation(scale=2.0, kind="uniform")
        values = np.zeros(10_000)
        perturbed = op.perturb(values, seed=rng)
        assert np.all(np.abs(perturbed) <= 2.0)
        assert perturbed.std() == pytest.approx(2.0 / np.sqrt(3), rel=0.05)

    def test_gaussian_noise_scale(self, rng):
        op = AdditiveNoisePerturbation(scale=1.5, kind="gaussian")
        perturbed = op.perturb(np.zeros(20_000), seed=rng)
        assert perturbed.std() == pytest.approx(1.5, rel=0.05)

    def test_mean_preserved(self, rng):
        op = AdditiveNoisePerturbation(scale=3.0)
        values = rng.uniform(10, 20, size=20_000)
        perturbed = op.perturb(values, seed=rng)
        assert perturbed.mean() == pytest.approx(values.mean(), abs=0.1)

    def test_input_validation(self):
        with pytest.raises(DataError):
            AdditiveNoisePerturbation(1.0).perturb(np.zeros((2, 2)))


class TestNoiseDensity:
    def test_uniform_density(self):
        op = AdditiveNoisePerturbation(scale=2.0, kind="uniform")
        assert op.noise_density(np.array([0.0]))[0] == pytest.approx(0.25)
        assert op.noise_density(np.array([2.5]))[0] == 0.0

    def test_gaussian_density_peak(self):
        op = AdditiveNoisePerturbation(scale=1.0, kind="gaussian")
        assert op.noise_density(np.array([0.0]))[0] == pytest.approx(
            1.0 / np.sqrt(2 * np.pi)
        )

    def test_densities_integrate_to_one(self):
        grid = np.linspace(-10, 10, 20_001)
        for kind in ("uniform", "gaussian"):
            op = AdditiveNoisePerturbation(scale=1.3, kind=kind)
            integral = np.trapezoid(op.noise_density(grid), grid)
            assert integral == pytest.approx(1.0, abs=1e-3)


class TestIntervalPrivacy:
    def test_uniform(self):
        op = AdditiveNoisePerturbation(scale=2.0, kind="uniform")
        assert op.interval_privacy(0.95) == pytest.approx(3.8)

    def test_gaussian_wider_than_uniform_at_high_confidence(self):
        u = AdditiveNoisePerturbation(scale=1.0, kind="uniform")
        g = AdditiveNoisePerturbation(scale=1.0, kind="gaussian")
        assert g.interval_privacy(0.99) > u.interval_privacy(0.99)
        # Two-sided 95% normal quantile: 1.959963984540054.
        assert g.interval_privacy(0.95) == pytest.approx(2 * 1.959963984540054)

    def test_validation(self):
        with pytest.raises(DataError):
            AdditiveNoisePerturbation(1.0).interval_privacy(1.0)


class TestReconstruction:
    def test_recovers_bimodal_distribution(self, rng):
        """The AS algorithm's headline demo: recover a clearly bimodal
        shape from heavily noised values."""
        true = np.concatenate(
            [rng.normal(2.0, 0.4, size=6000), rng.normal(8.0, 0.4, size=4000)]
        )
        op = AdditiveNoisePerturbation(scale=2.0, kind="uniform")
        perturbed = op.perturb(true, seed=rng)
        edges = np.linspace(0, 10, 21)
        estimate = op.reconstruct_distribution(perturbed, edges)

        truth_hist, _ = np.histogram(true, bins=edges)
        truth = truth_hist / truth_hist.sum()
        assert estimate.sum() == pytest.approx(1.0)
        # The two modes are recovered at the right locations.
        assert estimate[3:5].sum() > 0.25
        assert estimate[15:17].sum() > 0.15
        assert np.abs(estimate - truth).sum() < 0.5

    def test_beats_raw_perturbed_histogram(self, rng):
        true = np.concatenate(
            [rng.normal(3.0, 0.5, size=5000), rng.normal(7.0, 0.5, size=5000)]
        )
        op = AdditiveNoisePerturbation(scale=2.5, kind="uniform")
        perturbed = op.perturb(true, seed=rng)
        edges = np.linspace(0, 10, 21)

        truth_hist, _ = np.histogram(true, bins=edges)
        truth = truth_hist / truth_hist.sum()
        raw_hist, _ = np.histogram(np.clip(perturbed, 0, 10 - 1e-9), bins=edges)
        raw = raw_hist / raw_hist.sum()
        estimate = op.reconstruct_distribution(perturbed, edges)

        assert np.abs(estimate - truth).sum() < np.abs(raw - truth).sum()

    def test_validation(self):
        op = AdditiveNoisePerturbation(1.0)
        with pytest.raises(ReconstructionError):
            op.reconstruct_distribution(np.array([]), [0, 1])
        with pytest.raises(ReconstructionError):
            op.reconstruct_distribution(np.ones(5), [0.0])
        with pytest.raises(ReconstructionError):
            op.reconstruct_distribution(np.ones(5), [0.0, 1.0, 0.5])

    def test_all_outliers_rejected(self):
        op = AdditiveNoisePerturbation(scale=0.5, kind="uniform")
        with pytest.raises(ReconstructionError):
            # Values far outside the grid carry no kernel mass.
            op.reconstruct_distribution(np.array([100.0, 200.0]), np.linspace(0, 1, 5))
