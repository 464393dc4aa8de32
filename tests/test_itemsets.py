"""Tests for repro.mining.itemsets."""

import pytest

from repro.exceptions import MiningError
from repro.mining.itemsets import Itemset, all_items


class TestConstruction:
    def test_items_sorted_by_attribute(self):
        itemset = Itemset.of((2, 1), (0, 3))
        assert itemset.items == ((0, 3), (2, 1))

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(MiningError):
            Itemset.of((0, 1), (0, 2))

    def test_empty_rejected(self):
        with pytest.raises(MiningError):
            Itemset([])

    def test_hashable_and_equal(self):
        a = Itemset.of((1, 0), (2, 1))
        b = Itemset.of((2, 1), (1, 0))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_ordering(self):
        assert Itemset.of((0, 0)) < Itemset.of((0, 1)) < Itemset.of((1, 0))


class TestStructure:
    def test_length_and_views(self):
        itemset = Itemset.of((0, 3), (2, 1), (4, 0))
        assert itemset.length == 3
        assert len(itemset) == 3
        assert itemset.attributes == (0, 2, 4)
        assert itemset.values == (3, 1, 0)

    def test_stored_attributes_are_not_a_field(self):
        """Both constructors store ``attributes``; only ``items`` compares."""
        checked = Itemset.of((2, 1), (0, 3))
        trusted = Itemset._trusted(((0, 3), (2, 1)))
        assert checked.attributes is checked.attributes
        assert checked.attributes == trusted.attributes == (0, 2)
        assert checked == trusted and hash(checked) == hash(trusted)
        assert repr(checked) == "Itemset(items=((0, 3), (2, 1)))"

    def test_contains_and_iter(self):
        itemset = Itemset.of((0, 3), (2, 1))
        assert (0, 3) in itemset
        assert (0, 4) not in itemset
        assert list(itemset) == [(0, 3), (2, 1)]


class TestAlgebra:
    def test_union(self):
        a = Itemset.of((0, 1))
        b = Itemset.of((2, 0))
        assert a.union(b) == Itemset.of((0, 1), (2, 0))

    def test_union_conflict(self):
        with pytest.raises(MiningError):
            Itemset.of((0, 1)).union(Itemset.of((0, 2)))

    def test_union_overlap_consistent(self):
        a = Itemset.of((0, 1), (1, 0))
        b = Itemset.of((1, 0), (2, 2))
        assert a.union(b).length == 3

    def test_subsets_dropping_one(self):
        itemset = Itemset.of((0, 1), (1, 0), (2, 2))
        subsets = itemset.subsets_dropping_one()
        assert len(subsets) == 3
        assert all(s.length == 2 for s in subsets)
        assert Itemset.of((1, 0), (2, 2)) in subsets

    def test_singleton_has_no_proper_subsets(self):
        assert Itemset.of((0, 1)).subsets_dropping_one() == []

    def test_is_subset_of(self):
        small = Itemset.of((0, 1))
        big = Itemset.of((0, 1), (2, 0))
        assert small.is_subset_of(big)
        assert not big.is_subset_of(small)


class TestRendering:
    def test_label(self, tiny_schema):
        itemset = Itemset.of((0, 1), (1, 2))
        assert itemset.label(tiny_schema) == "color=blue & size=l"

    def test_boolean_positions(self, survey_schema):
        # Offsets: smokes 0..2, sex 3..4, income 5..6.
        itemset = Itemset.of((0, 2), (2, 1))
        assert itemset.boolean_positions(survey_schema) == (2, 6)


class TestAllItems:
    def test_count(self, survey_schema):
        items = all_items(survey_schema)
        assert len(items) == survey_schema.n_boolean == 7

    def test_all_singletons(self, survey_schema):
        assert all(i.length == 1 for i in all_items(survey_schema))

    def test_order(self, tiny_schema):
        items = all_items(tiny_schema)
        assert items[0] == Itemset.of((0, 0))
        assert items[-1] == Itemset.of((1, 2))
