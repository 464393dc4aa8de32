"""Tests for repro.data.dataset."""

import numpy as np
import pytest

from repro.data.backing import record_dtype
from repro.data.dataset import CategoricalDataset
from repro.exceptions import DataError


class TestConstruction:
    def test_basic(self, tiny_dataset):
        assert tiny_dataset.n_records == 8
        assert len(tiny_dataset) == 8

    def test_records_are_readonly(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.records[0, 0] = 1

    def test_source_array_not_aliased(self, tiny_schema):
        source = np.zeros((3, 2), dtype=np.int64)
        dataset = CategoricalDataset(tiny_schema, source)
        source[0, 0] = 1
        assert dataset.records[0, 0] == 0

    def test_wrong_width_rejected(self, tiny_schema):
        with pytest.raises(DataError):
            CategoricalDataset(tiny_schema, [[0, 0, 0]])

    def test_out_of_domain_rejected(self, tiny_schema):
        with pytest.raises(DataError) as err:
            CategoricalDataset(tiny_schema, [[0, 3]])
        assert "out-of-domain" in str(err.value)

    def test_negative_rejected(self, tiny_schema):
        with pytest.raises(DataError):
            CategoricalDataset(tiny_schema, [[-1, 0]])

    def test_empty_dataset_allowed(self, tiny_schema):
        dataset = CategoricalDataset(tiny_schema, np.empty((0, 2), dtype=np.int64))
        assert dataset.n_records == 0

    def test_from_joint_indices_roundtrip(self, tiny_dataset):
        rebuilt = CategoricalDataset.from_joint_indices(
            tiny_dataset.schema, tiny_dataset.joint_indices()
        )
        assert rebuilt == tiny_dataset

    def test_from_labels(self, tiny_schema):
        dataset = CategoricalDataset.from_labels(
            tiny_schema, [["red", "m"], ["blue", "l"]]
        )
        assert dataset.records.tolist() == [[0, 1], [1, 2]]

    def test_from_labels_unknown(self, tiny_schema):
        with pytest.raises(DataError):
            CategoricalDataset.from_labels(tiny_schema, [["red", "xl"]])

    def test_from_labels_wrong_arity(self, tiny_schema):
        with pytest.raises(DataError):
            CategoricalDataset.from_labels(tiny_schema, [["red"]])

    def test_equality(self, tiny_schema):
        a = CategoricalDataset(tiny_schema, [[0, 0]])
        b = CategoricalDataset(tiny_schema, [[0, 0]])
        c = CategoricalDataset(tiny_schema, [[0, 1]])
        assert a == b and a != c

    def test_repr_contains_shape(self, tiny_dataset):
        assert "n_records=8" in repr(tiny_dataset)


class TestConstructionCopies:
    """The single-copy construction policy (and its zero-copy paths)."""

    def test_readonly_array_adopted_without_copy(self, tiny_schema):
        source = np.zeros((3, 2), dtype=np.int64)
        source.setflags(write=False)
        dataset = CategoricalDataset(tiny_schema, source)
        assert np.shares_memory(dataset.records, source)

    def test_readonly_view_of_writable_base_is_copied(self, tiny_schema):
        base = np.zeros((3, 2), dtype=np.int64)
        view = base.view()
        view.setflags(write=False)
        dataset = CategoricalDataset(tiny_schema, view)
        base[0, 0] = 1  # must not reach the dataset through the alias
        assert dataset.records[0, 0] == 0
        assert not np.shares_memory(dataset.records, base)

    def test_broadcast_view_is_copied(self, tiny_schema):
        base = np.zeros((1, 2), dtype=np.int64)
        wide = np.broadcast_to(base, (3, 2))
        dataset = CategoricalDataset(tiny_schema, wide)
        base[0, 0] = 1
        assert dataset.records[0, 0] == 0

    def test_integer_dtype_preserved(self, tiny_schema):
        source = np.zeros((3, 2), dtype=np.uint8)
        assert CategoricalDataset(tiny_schema, source).records.dtype == np.uint8
        source64 = np.zeros((3, 2), dtype=np.int64)
        assert CategoricalDataset(tiny_schema, source64).records.dtype == np.int64

    def test_iter_chunks_shares_record_memory(self, tiny_dataset):
        chunk = next(tiny_dataset.iter_chunks(4))
        assert np.shares_memory(chunk.records, tiny_dataset.records)

    def test_from_joint_indices_is_compact(self, tiny_dataset):
        rebuilt = CategoricalDataset.from_joint_indices(
            tiny_dataset.schema, tiny_dataset.joint_indices()
        )
        assert rebuilt == tiny_dataset
        assert rebuilt.records.dtype == record_dtype(tiny_dataset.schema)


class TestBackends:
    """Caller-supplied int64 records keep their dtype; views agree."""

    def test_counting_views_identical_across_backends(self, tiny_dataset):
        assert tiny_dataset.records.dtype == np.int64  # built from a list
        compact = CategoricalDataset(
            tiny_dataset.schema,
            tiny_dataset.records.astype(record_dtype(tiny_dataset.schema)),
        )
        assert compact == tiny_dataset
        assert compact.nbytes * 8 == tiny_dataset.nbytes
        assert np.array_equal(compact.joint_counts(), tiny_dataset.joint_counts())
        assert np.array_equal(
            compact.subset_counts([1]), tiny_dataset.subset_counts([1])
        )
        assert compact.labels() == tiny_dataset.labels()


class TestViews:
    def test_joint_indices(self, tiny_dataset):
        expected = tiny_dataset.schema.encode(tiny_dataset.records)
        assert np.array_equal(tiny_dataset.joint_indices(), expected)

    def test_column_by_name_and_position(self, tiny_dataset):
        by_name = tiny_dataset.column("size")
        by_pos = tiny_dataset.column(1)
        assert np.array_equal(by_name, by_pos)

    def test_labels(self, tiny_schema):
        dataset = CategoricalDataset(tiny_schema, [[1, 2]])
        assert dataset.labels() == [("blue", "l")]

    def test_to_boolean_one_hot(self, tiny_dataset):
        bits = tiny_dataset.to_boolean()
        assert bits.shape == (8, 5)
        # Exactly one bit set per attribute block.
        assert np.all(bits[:, :2].sum(axis=1) == 1)
        assert np.all(bits[:, 2:].sum(axis=1) == 1)

    def test_to_boolean_positions(self, tiny_schema):
        dataset = CategoricalDataset(tiny_schema, [[1, 2]])
        assert dataset.to_boolean()[0].tolist() == [0, 1, 0, 0, 1]


class TestCounting:
    def test_joint_counts_total(self, tiny_dataset):
        counts = tiny_dataset.joint_counts()
        assert counts.shape == (6,)
        assert counts.sum() == 8

    def test_joint_counts_values(self, tiny_schema):
        dataset = CategoricalDataset(tiny_schema, [[0, 1], [0, 1], [1, 0]])
        counts = dataset.joint_counts()
        assert counts[1] == 2  # (0,1) -> index 1
        assert counts[3] == 1  # (1,0) -> index 3

    def test_subset_counts_marginalise(self, survey_dataset):
        by_subset = survey_dataset.subset_counts([0])
        by_value = survey_dataset.value_counts("smokes")
        assert np.array_equal(by_subset, by_value)

    def test_subset_counts_consistent_with_joint(self, survey_dataset):
        """Marginalising the joint histogram equals direct subset counts."""
        joint = survey_dataset.joint_counts().reshape(
            survey_dataset.schema.cardinalities
        )
        assert np.array_equal(
            survey_dataset.subset_counts([0, 2]), joint.sum(axis=1).ravel()
        )

    def test_value_counts_by_position(self, tiny_dataset):
        counts = tiny_dataset.value_counts(0)
        assert counts.tolist() == [5, 3]

    def test_sample(self, survey_dataset, rng):
        sample = survey_dataset.sample(100, rng)
        assert sample.n_records == 100
        assert sample.schema == survey_dataset.schema

    def test_sample_size_validation(self, tiny_dataset, rng):
        with pytest.raises(DataError):
            tiny_dataset.sample(9, rng)
        with pytest.raises(DataError):
            tiny_dataset.sample(-1, rng)
