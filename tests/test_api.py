"""The stable ``repro.api`` facade and its pinned surface.

Covers: Session/offline-engine bit-identity (direct and pipelined),
mechanism designator resolution, the one-shot module functions, the
``connect`` address parser, and the committed-surface gate.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import api
from repro.data.io import open_frd, save_frd
from repro.exceptions import ExperimentError
from repro.mechanisms import MechanismSpec, create

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def data():
    return repro.generate_census(600, seed=3)


@pytest.fixture(scope="module")
def offline(data):
    return create("det-gd", data.schema, gamma=19.0).perturb(data, seed=7)


class TestSession:
    def test_perturb_bit_identical_to_engine(self, data, offline):
        session = api.Session(data.schema, mechanism="det-gd", seed=7)
        released = session.perturb(data)
        np.testing.assert_array_equal(released.records, offline.records)

    def test_pipelined_session_bit_identical(self, data, offline):
        session = api.Session(
            data.schema, mechanism="det-gd", seed=7, chunk_size=101
        )
        released = session.perturb(data)
        np.testing.assert_array_equal(released.records, offline.records)

    def test_mechanism_designators_are_equivalent(self, data, offline):
        spellings = [
            {"mechanism": "det-gd"},
            {"mechanism": {"name": "det-gd", "params": {"gamma": 19.0}}},
            {"mechanism": MechanismSpec("det-gd", {"gamma": 19.0})},
            {"mechanism": create("det-gd", data.schema, gamma=19.0)},
            {"mechanism": "det-gd", "params": {"gamma": 19.0}},
        ]
        for kwargs in spellings:
            session = api.Session(data.schema, seed=7, **kwargs)
            np.testing.assert_array_equal(
                session.perturb(data).records, offline.records
            )

    def test_raw_array_input(self, data, offline):
        session = api.Session(data.schema, mechanism="det-gd", seed=7)
        released = session.perturb(np.asarray(data.records))
        np.testing.assert_array_equal(released.records, offline.records)

    def test_reconstruct_matches_marginal_inversion(self, data, offline):
        from repro.mechanisms.base import MarginalInversionEstimator
        from repro.mining.itemsets import Itemset

        session = api.Session(data.schema, mechanism="det-gd", seed=7)
        itemsets = [Itemset([(0, 1)]), [(1, 2), (2, 0)]]
        supports = session.reconstruct(offline, itemsets)
        mechanism = create("det-gd", data.schema, gamma=19.0)
        reference = MarginalInversionEstimator(
            mechanism, offline.subset_counts, offline.n_records
        )
        expected = reference.supports(
            [Itemset([(0, 1)]), Itemset([(1, 2), (2, 0)])]
        )
        np.testing.assert_array_equal(supports, expected)

    def test_mine_returns_apriori_result(self, data):
        session = api.Session(data.schema, mechanism="det-gd", seed=7)
        result = session.mine(data, 0.3, max_length=2)
        assert result.max_length <= 2
        assert result.n_frequent > 0

    def test_schema_mismatch_and_bad_designator(self, data):
        from repro.data import health_schema

        with pytest.raises(ExperimentError):
            api.Session(
                health_schema(),
                mechanism=create("det-gd", data.schema, gamma=19.0),
            )
        with pytest.raises(ExperimentError):
            api.Session(data.schema, mechanism=42)
        with pytest.raises(ExperimentError):
            api.Session(
                data.schema,
                mechanism=create("det-gd", data.schema, gamma=19.0),
                params={"gamma": 3.0},
            )


#: Every name, alias and display name of the paper's four mechanisms,
#: with the registry key it resolves to.
PAPER_SPELLINGS = [
    ("detgd", "det-gd"),
    ("DET-GD", "det-gd"),
    ("ran-gd", "ran-gd"),
    ("rangd", "ran-gd"),
    ("mask", "mask"),
    ("c&p", "c&p"),
    ("cp", "c&p"),
]


class TestDesignatorRule:
    """``Session``, ``repro.mine`` and ``run_mechanism`` share one rule."""

    @pytest.mark.parametrize("spelling, key", PAPER_SPELLINGS)
    def test_every_spelling_builds_the_same_mechanism(self, data, spelling, key):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_mechanism

        expected = create(key, data.schema, gamma=19.0).spec()
        session = api.Session(data.schema, mechanism=spelling, seed=7)
        assert session.mechanism.spec() == expected
        assert repro.mine(
            data, 0.3, mechanism=spelling, seed=7, max_length=2
        ) == repro.mine(data, 0.3, mechanism=expected, seed=7, max_length=2)
        config = ExperimentConfig(gamma=19.0, min_support=0.3, protocol="apriori")
        named = run_mechanism(data, spelling, config, seed=7)
        built = run_mechanism(data, expected, config, seed=7)
        assert named.mechanism == built.mechanism
        assert named.result == built.result

    @pytest.mark.parametrize("key", ["mask", "c&p"])
    def test_built_boolean_mechanisms_are_accepted(self, data, key):
        built = create(key, data.schema, gamma=19.0)
        session = api.Session(data.schema, mechanism=built, seed=7)
        assert session.mechanism is built
        assert session.mine(data, 0.3, max_length=2) == repro.mine(
            data, 0.3, mechanism=key, seed=7, max_length=2
        )
        assert key in repr(session)
        with pytest.raises(ExperimentError, match="mine"):
            session.reconstruct(data, [[(0, 1)]])

    def test_a_raw_engine_is_refused(self, data):
        from repro.core.engine import GammaDiagonalPerturbation

        engine = GammaDiagonalPerturbation(data.schema, 19.0)
        with pytest.raises(ExperimentError, match="GammaDiagonalPerturbation"):
            api.Session(data.schema, mechanism=engine)


class TestModuleFunctions:
    def test_one_shot_perturb(self, data, offline):
        released = api.perturb(data, seed=7)
        np.testing.assert_array_equal(released.records, offline.records)
        # Also via the top-level re-export.
        released = repro.perturb(data, seed=7)
        np.testing.assert_array_equal(released.records, offline.records)

    def test_one_shot_reconstruct_and_mine(self, data, offline):
        supports = api.reconstruct(offline, [[(0, 1)]])
        assert supports.shape == (1,)
        result = api.mine(data, 0.3, seed=7, max_length=1)
        assert result.n_frequent > 0


class TestDatasetInputs:
    def test_open_frd_is_bit_identical_to_the_in_ram_dataset(
        self, data, offline, tmp_path
    ):
        save_frd(data, tmp_path / "raw.frd")
        save_frd(offline, tmp_path / "released.frd")
        raw = open_frd(tmp_path / "raw.frd")
        released = open_frd(tmp_path / "released.frd")

        np.testing.assert_array_equal(
            repro.perturb(raw, seed=3).records, repro.perturb(data, seed=3).records
        )
        assert (
            repro.mine(raw, 0.05, seed=3).frequent()
            == repro.mine(data, 0.05, seed=3).frequent()
        )
        session = api.Session(data.schema, mechanism="det-gd", seed=7)
        itemsets = [[(0, 1)], [(1, 2), (2, 0)]]
        np.testing.assert_array_equal(
            session.reconstruct(released, itemsets),
            session.reconstruct(offline, itemsets),
        )

    @pytest.mark.parametrize("bad", [None, "records", object(), {"a": 1}])
    def test_non_dataset_input_raises_experiment_error(self, data, bad):
        with pytest.raises(ExperimentError):
            api.Session(data.schema, seed=7).perturb(bad)


class TestConnect:
    def test_address_forms(self):
        client = api.connect("http://10.0.0.5:9000/")
        assert (client.host, client.port) == ("10.0.0.5", 9000)
        client = api.connect("example.org:8001")
        assert (client.host, client.port) == ("example.org", 8001)
        client = api.connect(7777)
        assert (client.host, client.port) == ("127.0.0.1", 7777)
        client = api.connect()
        assert (client.host, client.port) == ("127.0.0.1", 8417)
        with pytest.raises(ExperimentError):
            api.connect("host:not-a-port")


class TestSurfaceGate:
    def test_facade_is_re_exported(self):
        for name in api.__all__:
            assert getattr(repro, name) is getattr(api, name)
            assert name in repro.__all__

    def test_committed_surface_matches(self):
        result = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "check_api_surface.py")],
            capture_output=True,
            text=True,
            cwd=str(REPO_ROOT),
        )
        assert result.returncode == 0, result.stdout + result.stderr
