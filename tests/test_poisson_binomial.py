"""Tests for the Poisson-Binomial oracle (tests/poisson_binomial.py)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from poisson_binomial import PoissonBinomial, variance_reduction_vs_identical

from repro.exceptions import DataError

probability_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=40
)


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(DataError):
            PoissonBinomial([])

    def test_rejects_out_of_range(self):
        with pytest.raises(DataError):
            PoissonBinomial([0.5, 1.2])
        with pytest.raises(DataError):
            PoissonBinomial([-0.1])

    def test_rejects_2d(self):
        with pytest.raises(DataError):
            PoissonBinomial([[0.5], [0.5]])


class TestMoments:
    def test_mean_is_sum(self):
        assert PoissonBinomial([0.1, 0.2, 0.3]).mean == pytest.approx(0.6)

    def test_variance_direct(self):
        pb = PoissonBinomial([0.5, 0.5])
        assert pb.variance == pytest.approx(0.5)

    @given(probability_vectors)
    def test_paper_eq25_equals_bernoulli_variance(self, probs):
        """Paper Eq. (25) is algebraically the Bernoulli-sum variance."""
        pb = PoissonBinomial(probs)
        assert pb.variance_paper_form() == pytest.approx(pb.variance, abs=1e-9)

    @given(probability_vectors)
    def test_variance_maximised_by_identical_trials(self, probs):
        """Feller's observation behind Section 4.2: spreading the p_i
        can only shrink the variance at fixed mean."""
        assert variance_reduction_vs_identical(probs) >= -1e-9

    def test_variance_reduction_zero_for_identical(self):
        assert variance_reduction_vs_identical([0.3] * 10) == pytest.approx(0.0)

    def test_variance_reduction_positive_for_spread(self):
        assert variance_reduction_vs_identical([0.1, 0.5]) > 0


class TestPmf:
    def test_matches_binomial_for_identical_trials(self):
        pb = PoissonBinomial([0.3] * 12)
        expected = [math.comb(12, k) * 0.3**k * 0.7 ** (12 - k) for k in range(13)]
        assert np.allclose(pb.pmf(), expected)

    def test_two_fair_coins(self):
        assert PoissonBinomial([0.5, 0.5]).pmf() == pytest.approx([0.25, 0.5, 0.25])

    @given(probability_vectors)
    @settings(max_examples=50)
    def test_pmf_is_distribution(self, probs):
        pmf = PoissonBinomial(probs).pmf()
        assert np.all(pmf >= -1e-12)
        assert pmf.sum() == pytest.approx(1.0)

    @given(probability_vectors)
    @settings(max_examples=50)
    def test_pmf_moments_match_closed_forms(self, probs):
        pb = PoissonBinomial(probs)
        pmf = pb.pmf()
        k = np.arange(pmf.size)
        assert (pmf * k).sum() == pytest.approx(pb.mean, abs=1e-8)
        assert (pmf * k**2).sum() - (pmf * k).sum() ** 2 == pytest.approx(
            pb.variance, abs=1e-8
        )

    def test_cdf_ends_at_one(self):
        cdf = PoissonBinomial([0.2, 0.7, 0.9]).cdf()
        assert cdf[-1] == pytest.approx(1.0)
        assert np.all(np.diff(cdf) >= -1e-12)

    def test_degenerate_all_certain(self):
        pmf = PoissonBinomial([1.0, 1.0, 1.0]).pmf()
        assert pmf[-1] == pytest.approx(1.0)

    def test_degenerate_all_impossible(self):
        pmf = PoissonBinomial([0.0, 0.0]).pmf()
        assert pmf[0] == pytest.approx(1.0)


class TestSampling:
    def test_sample_shape_and_range(self, rng):
        pb = PoissonBinomial([0.2, 0.8, 0.5])
        draws = pb.sample(200, rng)
        assert draws.shape == (200,)
        assert draws.min() >= 0 and draws.max() <= 3

    def test_sample_mean_close(self, rng):
        pb = PoissonBinomial([0.2, 0.8, 0.5])
        draws = pb.sample(20_000, rng)
        assert draws.mean() == pytest.approx(pb.mean, abs=0.05)

    def test_negative_size_rejected(self, rng):
        with pytest.raises(ValueError):
            PoissonBinomial([0.5]).sample(-1, rng)
