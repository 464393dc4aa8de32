"""Tests for repro.experiments (config, runner, tables, figures)."""

import math

import pytest

from repro.data.census import generate_census
from repro.exceptions import ExperimentError, FrappError
from repro.experiments.config import (
    ExperimentConfig,
    PAPER_GAMMA,
    PAPER_MIN_SUPPORT,
    dataset_scale,
)
from repro.experiments.figures import (
    figure1,
    figure3_posterior,
    figure3_support_error,
    figure4,
)
from repro.experiments.orchestrator import Orchestrator
from repro.experiments.runner import run_comparison, run_mechanism
from repro.experiments.tables import PAPER_TABLE3, table1, table2, table3
from repro.mining.reconstructing import mine_exact


class TestConfig:
    def test_paper_defaults(self):
        config = ExperimentConfig()
        assert config.gamma == pytest.approx(19.0)
        assert config.min_support == 0.02
        assert config.relative_alpha == 0.5
        assert config.mechanisms == ("DET-GD", "RAN-GD", "MASK", "C&P")

    def test_paper_constants(self):
        assert PAPER_GAMMA == pytest.approx(19.0)
        assert PAPER_MIN_SUPPORT == 0.02

    def test_validation(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(gamma=1.0)
        with pytest.raises(ExperimentError):
            ExperimentConfig(min_support=0.0)
        with pytest.raises(ExperimentError):
            ExperimentConfig(relative_alpha=2.0)

    def test_dataset_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert dataset_scale() == 0.5
        monkeypatch.setenv("REPRO_SCALE", "junk")
        with pytest.raises(ExperimentError):
            dataset_scale()
        monkeypatch.setenv("REPRO_SCALE", "2.0")
        with pytest.raises(ExperimentError):
            dataset_scale()


class TestRunner:
    @pytest.fixture(scope="class")
    def small_census(self):
        return generate_census(6000, seed=1)

    def test_run_mechanism(self, small_census):
        config = ExperimentConfig(seed=0)
        run = run_mechanism(small_census, "DET-GD", config)
        assert run.mechanism == "DET-GD"
        assert run.seconds > 0
        assert run.errors.lengths()

    def test_unknown_mechanism(self, small_census):
        with pytest.raises(ExperimentError):
            run_mechanism(small_census, "laplace", ExperimentConfig())

    def test_shared_reference_consistency(self, small_census):
        """Passing the true result explicitly changes nothing."""
        config = ExperimentConfig(seed=4)
        truth = mine_exact(small_census, config.min_support)
        a = run_mechanism(small_census, "DET-GD", config, true_result=truth, seed=2)
        b = run_mechanism(small_census, "DET-GD", config, seed=2)
        assert a.errors.rho == b.errors.rho

    def test_run_comparison_covers_all_mechanisms(self, small_census):
        config = ExperimentConfig(seed=1, mechanisms=("DET-GD", "MASK"))
        runs = run_comparison(small_census, config)
        assert set(runs) == {"DET-GD", "MASK"}

    def test_comparison_deterministic(self, small_census):
        config = ExperimentConfig(seed=2, mechanisms=("DET-GD",))
        a = run_comparison(small_census, config)["DET-GD"]
        b = run_comparison(small_census, config)["DET-GD"]
        assert a.errors.rho.keys() == b.errors.rho.keys()
        for length, value in a.errors.rho.items():
            other = b.errors.rho[length]
            assert (math.isnan(value) and math.isnan(other)) or value == other


class TestTables:
    def test_table1_matches_paper(self):
        rows = dict(table1())
        assert list(rows) == [
            "age",
            "fnlwgt",
            "hours-per-week",
            "race",
            "sex",
            "native-country",
        ]
        assert rows["sex"] == ("Female", "Male")

    def test_table2_matches_paper(self):
        rows = dict(table2())
        assert len(rows) == 7
        assert rows["SEX"] == ("Male", "Female")

    def test_table3_structure(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        counts = table3()
        assert set(counts) == {"CENSUS", "HEALTH"}
        assert counts["CENSUS"][1] > 0

    def test_paper_table3_reference(self):
        assert PAPER_TABLE3["CENSUS"][6] == 10
        assert PAPER_TABLE3["HEALTH"][7] == 12


class TestFigures:
    def test_figure1_structure(self):
        config = ExperimentConfig(seed=3, mechanisms=("DET-GD",))
        panels = figure1(config, n_records=4000)
        assert set(panels) == {"rho", "sigma_minus", "sigma_plus"}
        assert "DET-GD" in panels["rho"]

    def test_figure3_posterior_paper_point(self):
        series = figure3_posterior(n=2000, gamma=19.0, prior=0.05, alphas=[0.0, 0.5])
        assert series["rho2"][0.5] == pytest.approx(0.50, abs=0.01)
        assert series["rho2_minus"][0.5] == pytest.approx(1 / 3, abs=0.02)
        assert series["rho2_plus"][0.5] == pytest.approx(0.60, abs=0.02)

    def test_figure3_posterior_monotone(self):
        series = figure3_posterior(n=2000)
        lows = [series["rho2_minus"][a] for a in sorted(series["rho2_minus"])]
        assert all(b <= a + 1e-12 for a, b in zip(lows, lows[1:]))

    def test_figure3_support_error_structure(self):
        config = ExperimentConfig(seed=5)
        series = figure3_support_error(
            "CENSUS", length=3, alphas=[0.0, 1.0], config=config, n_records=4000
        )
        assert set(series) == {"RAN-GD", "DET-GD"}
        det_values = set(series["DET-GD"].values())
        assert len(det_values) == 1  # flat reference line

    def test_figure4_structure(self):
        series = figure4("CENSUS")
        assert series["DET-GD"][1] == pytest.approx(2018 / 18)
        series_h = figure4("HEALTH")
        assert series_h["DET-GD"][1] == pytest.approx(7518 / 18)
        assert max(series_h["MASK"]) == 7

    def test_figure4_unknown_dataset(self):
        with pytest.raises(ExperimentError):
            figure4("MNIST")

    @pytest.mark.parametrize(
        "call",
        [
            lambda: figure3_support_error("MNIST", n_records=1000),
            lambda: figure3_support_error(
                "MNIST", n_records=1000, orchestrator=Orchestrator()
            ),
            # A 0-record spec is mined as given, not replaced by the default.
            lambda: table3(n_census=0, n_health=1000),
        ],
        ids=["figure3", "figure3-orchestrated", "table3-zero-records"],
    )
    def test_bad_dataset_requests_raise_typed_errors(self, call):
        with pytest.raises(FrappError):
            call()
