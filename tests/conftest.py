"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import CategoricalDataset
from repro.data.schema import Attribute, Schema


@pytest.fixture(autouse=True)
def isolated_result_store(tmp_path_factory, monkeypatch):
    """Point the default result store at a fresh directory per test.

    A test that calls ``main`` with no store option would otherwise
    write the user's ``~/.cache/frapp``.  Tests that set
    ``REPRO_CACHE_DIR`` themselves override this.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("store")))


@pytest.fixture
def rng():
    """A deterministic generator, fresh per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_schema():
    """Two attributes (2 x 3), joint size 6 -- small enough to enumerate."""
    return Schema(
        [
            Attribute("color", ["red", "blue"]),
            Attribute("size", ["s", "m", "l"]),
        ]
    )


@pytest.fixture
def survey_schema():
    """Three attributes (3 x 2 x 2), joint size 12."""
    return Schema(
        [
            Attribute("smokes", ["never", "former", "current"]),
            Attribute("sex", ["F", "M"]),
            Attribute("income", ["low", "high"]),
        ]
    )


@pytest.fixture
def tiny_dataset(tiny_schema):
    """Eight fixed records over the tiny schema."""
    records = [
        [0, 0],
        [0, 1],
        [0, 1],
        [1, 2],
        [1, 0],
        [0, 2],
        [1, 1],
        [0, 1],
    ]
    return CategoricalDataset(tiny_schema, records)


@pytest.fixture
def survey_dataset(survey_schema, rng):
    """A skewed, correlated 5000-record dataset over survey_schema."""
    n = 5000
    smokes = rng.choice(3, size=n, p=[0.6, 0.25, 0.15])
    sex = rng.choice(2, size=n, p=[0.5, 0.5])
    income = np.where(
        smokes == 0,
        rng.choice(2, size=n, p=[0.4, 0.6]),
        rng.choice(2, size=n, p=[0.7, 0.3]),
    )
    return CategoricalDataset(survey_schema, np.stack([smokes, sex, income], axis=1))
