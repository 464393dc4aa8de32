"""Tests for repro.mining.reconstructing and mining with named mechanisms."""

import pytest

import repro
from repro.mechanisms import resolve
from repro.mechanisms.builtin import (
    CutAndPasteMechanism,
    GammaDiagonalMechanism,
    MaskMechanism,
    RandomizedGammaDiagonalMechanism,
)
from repro.mining.apriori import AprioriResult
from repro.mining.reconstructing import mine_exact


def _named(name, schema, gamma=19.0, **params):
    return resolve(name, schema, defaults={"gamma": gamma}, params=params)


class TestFactory:
    def test_names(self, survey_schema):
        for name, mechanism, display in (
            ("det-gd", GammaDiagonalMechanism, "DET-GD"),
            ("RAN-GD", RandomizedGammaDiagonalMechanism, "RAN-GD"),
            ("mask", MaskMechanism, "MASK"),
            ("C&P", CutAndPasteMechanism, "C&P"),
            ("cut-and-paste", CutAndPasteMechanism, "C&P"),
        ):
            built = _named(name, survey_schema)
            assert type(built) is mechanism
            assert built.display == display

    def test_unknown_name(self, survey_schema):
        with pytest.raises(ValueError):
            _named("dp", survey_schema)

    def test_kwargs_forwarded(self, survey_schema):
        built = _named("ran-gd", survey_schema, relative_alpha=0.25)
        assert built.alpha == pytest.approx(
            0.25 * 19.0 / (19.0 + survey_schema.joint_size - 1)
        )


class TestDrivers:
    @pytest.mark.parametrize("name", ["det-gd", "ran-gd", "mask", "c&p"])
    def test_mine_returns_result(self, name, survey_dataset):
        result = repro.mine(survey_dataset, 0.10, mechanism=name, seed=0)
        assert isinstance(result, AprioriResult)
        assert result.min_support == 0.10

    def test_deterministic_with_seed(self, survey_dataset):
        a = repro.mine(survey_dataset, 0.10, seed=5)
        b = repro.mine(survey_dataset, 0.10, seed=5)
        assert a.frequent() == b.frequent()

    def test_high_gamma_recovers_exact_mining(self, survey_dataset):
        """With a huge gamma (nearly no perturbation), DET-GD mining
        converges to exact mining."""
        mined = repro.mine(survey_dataset, 0.10, params={"gamma": 1e6}, seed=1)
        truth = mine_exact(survey_dataset, 0.10)
        assert set(mined.frequent()) == set(truth.frequent())

    def test_mask_p_configured_from_gamma(self, survey_schema):
        assert _named("mask", survey_schema).p == pytest.approx(
            19.0 ** (1 / 6) / (1 + 19.0 ** (1 / 6))
        )

    def test_cp_rho_configured_from_gamma(self, survey_schema):
        assert _named("c&p", survey_schema).amplification() <= 19.0 * (1 + 1e-9)

    def test_perturb_exposed(self, survey_schema, survey_dataset):
        perturbed = _named("det-gd", survey_schema).perturb(survey_dataset, seed=2)
        assert perturbed.schema == survey_schema

        mask_bits = _named("mask", survey_schema).perturb(survey_dataset, seed=3)
        assert mask_bits.shape == (survey_dataset.n_records, survey_schema.n_boolean)

    def test_mine_exact_reference(self, survey_dataset):
        result = mine_exact(survey_dataset, 0.10)
        assert result.n_frequent > 0
        assert all(
            s >= 0.10 for level in result.by_length.values() for s in level.values()
        )
