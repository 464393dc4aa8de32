"""Tests for repro.data.backing: dtypes, record blocks, equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.backing import (
    ArrayRecordBlock,
    as_record_block,
    column_dtypes,
    minimal_dtype,
    record_dtype,
)
from repro.data.dataset import CategoricalDataset
from repro.data.schema import Attribute, Schema
from repro.exceptions import DataError


class TestMinimalDtype:
    @pytest.mark.parametrize(
        "card,expected",
        [
            (2, np.uint8),
            (256, np.uint8),
            (257, np.uint16),
            (65_536, np.uint16),
            (65_537, np.uint32),
            (2**32, np.uint32),
        ],
    )
    def test_ladder(self, card, expected):
        assert minimal_dtype(card) == np.dtype(expected)

    def test_too_large_rejected(self):
        with pytest.raises(DataError):
            minimal_dtype(2**32 + 1)

    def test_invalid_cardinality_rejected(self):
        with pytest.raises(DataError):
            minimal_dtype(0)

    def test_column_and_record_dtypes(self, tiny_schema):
        assert column_dtypes(tiny_schema) == (np.dtype(np.uint8),) * 2
        assert record_dtype(tiny_schema) == np.dtype(np.uint8)

    def test_record_dtype_takes_widest(self):
        schema = Schema(
            [
                Attribute("small", ["a", "b"]),
                Attribute("wide", [str(i) for i in range(300)]),
            ]
        )
        assert column_dtypes(schema) == (np.dtype(np.uint8), np.dtype(np.uint16))
        assert record_dtype(schema) == np.dtype(np.uint16)


class TestArrayRecordBlock:
    def test_slicing_is_zero_copy(self, tiny_dataset):
        block = ArrayRecordBlock(tiny_dataset.schema, tiny_dataset.records)
        view = block.records(2, 5)
        assert view.shape == (3, 2)
        assert np.shares_memory(view, tiny_dataset.records)
        assert block.n_records == tiny_dataset.n_records
        assert block.dtype == tiny_dataset.records.dtype

    def test_shape_validated(self, tiny_schema):
        with pytest.raises(DataError):
            ArrayRecordBlock(tiny_schema, np.zeros((4, 3), dtype=np.uint8))


class TestAsRecordBlock:
    def test_dataset_resolves(self, tiny_dataset):
        block = as_record_block(tiny_dataset, tiny_dataset.schema)
        assert block.n_records == tiny_dataset.n_records

    def test_schema_mismatch_rejected(self, tiny_dataset, survey_schema):
        with pytest.raises(DataError):
            as_record_block(tiny_dataset, survey_schema)

    def test_array_resolves(self, tiny_schema):
        block = as_record_block(np.zeros((5, 2), dtype=np.uint8), tiny_schema)
        assert block.n_records == 5

    def test_iterable_is_not_a_block(self, tiny_dataset):
        chunks = iter([tiny_dataset.records])
        assert as_record_block(chunks, tiny_dataset.schema) is None

    def test_frd_resolves(self, tiny_dataset, tmp_path):
        from repro.data.io import open_frd, save_frd

        path = tmp_path / "tiny.frd"
        save_frd(tiny_dataset, path)
        block = as_record_block(open_frd(path), tiny_dataset.schema)
        assert block.n_records == tiny_dataset.n_records
        assert np.array_equal(block.records(0, 3), tiny_dataset.records[:3])


# ----------------------------------------------------------------------
# dtype minimisation can never change a count (Hypothesis)
# ----------------------------------------------------------------------
@st.composite
def schema_and_records(draw):
    """A random small schema plus in-domain records."""
    cards = draw(st.lists(st.integers(2, 6), min_size=1, max_size=4))
    schema = Schema(
        Attribute(f"a{j}", [f"c{v}" for v in range(card)])
        for j, card in enumerate(cards)
    )
    n = draw(st.integers(0, 40))
    cells = [
        draw(st.lists(st.integers(0, card - 1), min_size=n, max_size=n))
        for card in cards
    ]
    records = np.array(cells, dtype=np.int64).T.reshape(n, len(cards))
    return schema, records


@given(schema_and_records())
@settings(max_examples=50, deadline=None)
def test_counts_identical_across_backings(case):
    """int64 vs compact backing: every count/marginal/encode agrees."""
    schema, records = case
    wide = CategoricalDataset(schema, records)
    compact = CategoricalDataset(schema, records.astype(record_dtype(schema)))
    assert wide == compact
    assert compact.records.dtype == record_dtype(schema)
    assert np.array_equal(wide.joint_indices(), compact.joint_indices())
    assert np.array_equal(wide.joint_counts(), compact.joint_counts())
    for j in range(schema.n_attributes):
        assert np.array_equal(wide.value_counts(j), compact.value_counts(j))
    if schema.n_attributes > 1:
        positions = [schema.n_attributes - 1, 0]
        assert np.array_equal(
            wide.subset_counts(positions), compact.subset_counts(positions)
        )
    assert np.array_equal(wide.to_boolean(), compact.to_boolean())


@given(schema_and_records(), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_perturbation_identical_across_backings(case, seed):
    """The DET-GD sampler draws identically over both backings."""
    from repro.core.engine import GammaDiagonalPerturbation

    schema, records = case
    engine = GammaDiagonalPerturbation(schema, gamma=4.0)
    wide = CategoricalDataset(schema, records)
    compact = CategoricalDataset(schema, records.astype(record_dtype(schema)))
    out_wide = engine.perturb(wide, seed=seed)
    out_compact = engine.perturb(compact, seed=seed)
    assert out_wide == out_compact
    assert out_compact.records.dtype == record_dtype(schema)
