"""Tests for repro.data.schema."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.schema import Attribute, Schema
from repro.exceptions import DataError, SchemaError


def schema_strategy(max_attrs=4, max_card=5):
    cards = st.lists(
        st.integers(min_value=2, max_value=max_card), min_size=1, max_size=max_attrs
    )
    return cards.map(
        lambda cs: Schema(
            Attribute(f"a{i}", [f"c{j}" for j in range(c)]) for i, c in enumerate(cs)
        )
    )


@functools.lru_cache(maxsize=None)
def _schema_of(cards):
    return Schema(
        Attribute(f"a{i}", [f"c{j}" for j in range(c)]) for i, c in enumerate(cards)
    )


#: Cardinality lists whose joint domain needs each Horner work dtype of
#: the encode kernel: int16 (at most 8**4 cells), int32 (60**3 to
#: 128**4 cells) and int64 (80**5 to 128**6 cells).  No cardinality
#: exceeds 128, so int8 cells can hold every category.
_CARDS_BY_WORK_DTYPE = (
    st.lists(st.integers(2, 8), min_size=1, max_size=4),
    st.lists(st.integers(60, 128), min_size=3, max_size=4),
    st.lists(st.integers(80, 128), min_size=5, max_size=6),
)
_INPUT_DTYPES = ("uint8", "uint16", "uint32", "uint64", "int8", "int64")


@st.composite
def _encode_cases(draw):
    cards = tuple(draw(st.one_of(_CARDS_BY_WORK_DTYPE)))
    dtype = np.dtype(draw(st.sampled_from(_INPUT_DTYPES)))
    n = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    records = np.zeros((n, len(cards)), dtype=dtype)
    for j, card in enumerate(cards):
        records[:, j] = rng.integers(0, card, size=n)
    layout = draw(st.sampled_from(["rows", "fortran-rows", "columns"]))
    positions = draw(st.permutations(range(len(cards))))
    positions = positions[: draw(st.integers(1, len(cards)))]
    bad = None
    if n:
        row, j = draw(st.integers(0, n - 1)), draw(st.sampled_from(positions))
        negative = dtype.kind == "i" and draw(st.booleans())
        if negative or cards[j] > np.iinfo(dtype).max:
            bad = (row, j, -draw(st.integers(1, 3)))
        else:
            bad = (row, j, cards[j] + draw(st.integers(0, 3)))
    return _schema_of(cards), records, layout, positions, bad


def _encode(schema, records, layout):
    if layout == "columns":
        return schema.encode_columns([records[:, j] for j in range(len(schema))])
    if layout == "fortran-rows":
        records = np.asfortranarray(records)
    return schema.encode(records)


@given(_encode_cases())
@settings(max_examples=120, deadline=None)
def test_encode_kernel_equals_ravel_multi_index(case):
    """``np.ravel_multi_index`` is the oracle of the joint-index kernel.

    Over every Horner work dtype, input dtypes from ``uint8`` to
    ``uint64`` and ``int8``/``int64`` (``uint64`` cells meet an
    ``int64`` fold, where NumPy's promotion would go through
    ``float64``), rows in either memory order or per-attribute columns,
    and empty inputs; a cell at or past its cardinality, or negative,
    raises ``DataError`` on every entry point.
    """
    schema, records, layout, positions, bad = case
    wide = records.astype(np.int64)
    joint = _encode(schema, records, layout)
    assert joint.dtype == np.intp
    assert np.array_equal(joint, np.ravel_multi_index(wide.T, schema.cardinalities))
    subset = schema.encode_subset(records, positions)
    assert subset.dtype == np.intp
    assert np.array_equal(
        subset,
        np.ravel_multi_index(
            wide[:, positions].T, [schema.cardinalities[p] for p in positions]
        ),
    )
    if bad is not None:
        row, j, value = bad
        records[row, j] = value
        with pytest.raises(DataError, match=schema.names[j]):
            _encode(schema, records, layout)
        with pytest.raises(DataError, match=schema.names[j]):
            schema.encode_subset(records, positions)


class TestAttribute:
    def test_basic(self):
        attr = Attribute("sex", ["F", "M"])
        assert attr.cardinality == 2
        assert attr.index_of("M") == 1

    def test_unknown_label(self):
        with pytest.raises(SchemaError):
            Attribute("sex", ["F", "M"]).index_of("X")

    def test_needs_two_categories(self):
        with pytest.raises(SchemaError):
            Attribute("x", ["only"])

    def test_rejects_duplicates(self):
        with pytest.raises(SchemaError):
            Attribute("x", ["a", "a"])

    def test_rejects_empty_name(self):
        with pytest.raises(SchemaError):
            Attribute("", ["a", "b"])

    def test_labels_coerced_to_str(self):
        attr = Attribute("bins", [0, 1, 2])
        assert attr.categories == ("0", "1", "2")


class TestSchemaBasics:
    def test_shape_properties(self, survey_schema):
        assert survey_schema.n_attributes == 3
        assert survey_schema.cardinalities == (3, 2, 2)
        assert survey_schema.joint_size == 12
        assert survey_schema.n_boolean == 7

    def test_names_and_lookup(self, survey_schema):
        assert survey_schema.names == ("smokes", "sex", "income")
        assert survey_schema.position_of("income") == 2
        assert survey_schema["sex"].cardinality == 2
        assert survey_schema[0].name == "smokes"

    def test_unknown_name(self, survey_schema):
        with pytest.raises(SchemaError):
            survey_schema.position_of("nope")

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema([Attribute("a", "xy"), Attribute("a", "xy")])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_prefix_products(self, survey_schema):
        assert survey_schema.prefix_products() == (3, 6, 12)

    def test_boolean_offsets(self, survey_schema):
        assert survey_schema.boolean_offsets() == (0, 3, 5)

    def test_subset_size(self, survey_schema):
        assert survey_schema.subset_size([0, 2]) == 6
        assert survey_schema.subset_size([1]) == 2

    def test_subset_size_validation(self, survey_schema):
        with pytest.raises(SchemaError):
            survey_schema.subset_size([0, 0])
        with pytest.raises(SchemaError):
            survey_schema.subset_size([5])

    def test_iteration(self, survey_schema):
        assert [a.name for a in survey_schema] == ["smokes", "sex", "income"]
        assert len(survey_schema) == 3

    def test_describe_mentions_all_attributes(self, survey_schema):
        text = survey_schema.describe()
        for name in survey_schema.names:
            assert name in text

    def test_equality(self):
        a = Schema([Attribute("x", "ab")])
        b = Schema([Attribute("x", "ab")])
        assert a == b


class TestEncoding:
    def test_known_values(self, tiny_schema):
        # Mixed radix, attribute 0 most significant: (1, 2) -> 1*3+2 = 5.
        assert tiny_schema.encode([[1, 2]]).tolist() == [5]
        assert tiny_schema.encode([[0, 0]]).tolist() == [0]

    def test_decode_known(self, tiny_schema):
        assert tiny_schema.decode([5]).tolist() == [[1, 2]]

    @given(schema_strategy(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60)
    def test_roundtrip(self, schema, seed):
        rng = np.random.default_rng(seed)
        records = np.stack(
            [rng.integers(0, c, size=20) for c in schema.cardinalities], axis=1
        )
        joint = schema.encode(records)
        assert np.all(joint >= 0) and np.all(joint < schema.joint_size)
        assert np.array_equal(schema.decode(joint), records)

    def test_encode_shape_validation(self, tiny_schema):
        with pytest.raises(SchemaError):
            tiny_schema.encode([[0, 0, 0]])
        with pytest.raises(SchemaError):
            tiny_schema.encode([0, 1])
        with pytest.raises(SchemaError):
            tiny_schema.encode_columns([np.zeros(3, dtype=np.uint8)])
        with pytest.raises(SchemaError):
            tiny_schema.encode_columns([np.zeros(3, np.uint8), np.zeros(2, np.uint8)])

    def test_encode_refuses_a_domain_past_int64(self):
        wide = _schema_of((2,) * 64)
        with pytest.raises(SchemaError, match="int64"):
            wide.encode(np.zeros((1, 64), dtype=np.uint8))
        assert wide.encode_subset(np.ones((1, 64), dtype=np.uint8), [0, 63]) == [3]

    def test_decode_range_validation(self, tiny_schema):
        with pytest.raises(SchemaError):
            tiny_schema.decode([6])
        with pytest.raises(SchemaError):
            tiny_schema.decode([-1])

    def test_subset_roundtrip(self, survey_schema, rng):
        records = np.stack(
            [rng.integers(0, c, size=50) for c in survey_schema.cardinalities], axis=1
        )
        positions = (0, 2)
        joint = survey_schema.encode_subset(records, positions)
        assert joint.max() < survey_schema.subset_size(positions)
        decoded = survey_schema.decode_subset(joint, positions)
        assert np.array_equal(decoded, records[:, list(positions)])

    def test_subset_encode_empty_rejected(self, survey_schema):
        with pytest.raises(SchemaError):
            survey_schema.encode_subset(np.zeros((1, 3), dtype=int), [])

    def test_subset_consistency_with_full(self, survey_schema, rng):
        """Encoding the full attribute list equals the plain encoding."""
        records = np.stack(
            [rng.integers(0, c, size=30) for c in survey_schema.cardinalities], axis=1
        )
        full = survey_schema.encode(records)
        subset = survey_schema.encode_subset(records, range(survey_schema.n_attributes))
        assert np.array_equal(full, subset)
