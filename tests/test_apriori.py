"""Tests for repro.mining.apriori."""

from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import CategoricalDataset
from repro.data.schema import Attribute, Schema
from repro.exceptions import MiningError
from repro.mining.apriori import AprioriResult, apriori, generate_candidates
from repro.mining.counting import ExactSupportCounter
from repro.mining.itemsets import Itemset


def brute_force_frequent(dataset, min_support):
    """All frequent itemsets by exhaustive enumeration (test oracle)."""
    schema = dataset.schema
    n = dataset.n_records
    frequent = {}
    attrs = range(schema.n_attributes)
    for size in range(1, schema.n_attributes + 1):
        for subset in combinations(attrs, size):
            for values in product(*(range(schema.cardinalities[a]) for a in subset)):
                mask = np.ones(n, dtype=bool)
                for a, v in zip(subset, values):
                    mask &= dataset.column(a) == v
                support = mask.mean()
                if support >= min_support:
                    frequent[Itemset(zip(subset, values))] = support
    return frequent


def reference_candidates(frequent_level):
    """Candidate generation through validated ``Itemset`` subsets (oracle)."""
    ordered = sorted(frequent_level)
    frequent_set = set(ordered)
    candidates = []
    for i, left in enumerate(ordered):
        for right in ordered[i + 1 :]:
            if left.items[:-1] != right.items[:-1]:
                break
            if left.items[-1][0] == right.items[-1][0]:
                continue
            candidate = Itemset(left.items + (right.items[-1],))
            if all(s in frequent_set for s in candidate.subsets_dropping_one()):
                candidates.append(candidate)
    return candidates


@st.composite
def frequent_levels(draw):
    """A random level of same-length itemsets over a random schema.

    Either every ``k``-itemset kept with some probability (most joins
    then lose a subset to pruning) or the frequent ``k``-itemsets of
    random data (a downward-closed lattice, so most joins survive).
    """
    cards = draw(st.lists(st.integers(2, 3), min_size=2, max_size=5))
    length = draw(st.integers(1, min(3, len(cards))))
    every = [
        Itemset(zip(attrs, values))
        for attrs in combinations(range(len(cards)), length)
        for values in product(*(range(cards[a]) for a in attrs))
    ]
    if draw(st.booleans()):
        keep = draw(st.floats(0.2, 1.0))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return [its for its in every if rng.random() < keep]
    schema = Schema(
        [Attribute(f"a{i}", [f"c{j}" for j in range(c)]) for i, c in enumerate(cards)]
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    records = rng.integers(0, cards, size=(40, len(cards)))
    dataset = CategoricalDataset(schema, records)
    supports = ExactSupportCounter(dataset).supports(every)
    return [its for its, support in zip(every, supports) if support >= 0.05]


class TestCandidateGeneration:
    @given(level=frequent_levels(), shuffle_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, level, shuffle_seed):
        """Same candidates in the same order as the validated oracle."""
        np.random.default_rng(shuffle_seed).shuffle(level)
        candidates = generate_candidates(level)
        assert candidates == reference_candidates(level)
        for candidate in candidates:
            assert candidate.items == Itemset(candidate.items).items
            assert hash(candidate) == hash(Itemset(candidate.items))

    def test_joins_shared_prefix(self):
        level = [Itemset.of((0, 1), (1, 0)), Itemset.of((0, 1), (2, 1))]
        candidates = generate_candidates(level)
        # Pruning removes it: subset {(1,0),(2,1)} is not frequent.
        assert candidates == []

    def test_join_with_closure(self):
        level = [
            Itemset.of((0, 1), (1, 0)),
            Itemset.of((0, 1), (2, 1)),
            Itemset.of((1, 0), (2, 1)),
        ]
        candidates = generate_candidates(level)
        assert candidates == [Itemset.of((0, 1), (1, 0), (2, 1))]

    def test_same_attribute_last_items_not_joined(self):
        level = [Itemset.of((0, 1), (1, 0)), Itemset.of((0, 1), (1, 1))]
        assert generate_candidates(level) == []

    def test_level1_join(self):
        level = [Itemset.of((0, 1)), Itemset.of((1, 0))]
        assert generate_candidates(level) == [Itemset.of((0, 1), (1, 0))]

    def test_empty_level(self):
        assert generate_candidates([]) == []


class TestAprioriExact:
    def test_matches_brute_force(self, survey_dataset):
        result = apriori(
            ExactSupportCounter(survey_dataset), survey_dataset.schema, 0.05
        )
        expected = brute_force_frequent(survey_dataset, 0.05)
        assert result.frequent() == pytest.approx(expected)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.05, max_value=0.5),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_random(self, seed, min_support):
        """Property: Apriori == exhaustive search on random data."""
        rng = np.random.default_rng(seed)
        schema = Schema(
            [
                Attribute("a", "xy"),
                Attribute("b", "pqr"),
                Attribute("c", "uv"),
            ]
        )
        records = np.stack(
            [rng.integers(0, c, size=60) for c in schema.cardinalities], axis=1
        )
        dataset = CategoricalDataset(schema, records)
        result = apriori(ExactSupportCounter(dataset), schema, min_support)
        assert result.frequent() == pytest.approx(
            brute_force_frequent(dataset, min_support)
        )

    def test_max_length_caps_output(self, survey_dataset):
        result = apriori(
            ExactSupportCounter(survey_dataset), survey_dataset.schema, 0.05, max_length=2
        )
        assert result.max_length <= 2

    def test_downward_closure_in_output(self, survey_dataset):
        """Every subset of a frequent itemset is frequent."""
        result = apriori(
            ExactSupportCounter(survey_dataset), survey_dataset.schema, 0.05
        )
        frequent = set(result.frequent())
        for itemset in frequent:
            for subset in itemset.subsets_dropping_one():
                assert subset in frequent

    def test_impossible_threshold_gives_empty(self, survey_dataset):
        result = apriori(
            ExactSupportCounter(survey_dataset), survey_dataset.schema, 1.0
        )
        assert result.n_frequent <= survey_dataset.schema.n_attributes

    def test_min_support_validation(self, survey_dataset):
        counter = ExactSupportCounter(survey_dataset)
        with pytest.raises(MiningError):
            apriori(counter, survey_dataset.schema, 0.0)
        with pytest.raises(MiningError):
            apriori(counter, survey_dataset.schema, 1.5)

    def test_max_length_validation(self, survey_dataset):
        with pytest.raises(MiningError):
            apriori(
                ExactSupportCounter(survey_dataset),
                survey_dataset.schema,
                0.05,
                max_length=0,
            )

    def test_bad_support_source_shape(self, survey_dataset):
        class Broken:
            def supports(self, itemsets):
                return np.zeros(1)

        with pytest.raises(MiningError):
            apriori(Broken(), survey_dataset.schema, 0.05)


class TestAprioriResult:
    @pytest.fixture
    def result(self, survey_dataset):
        return apriori(
            ExactSupportCounter(survey_dataset), survey_dataset.schema, 0.05
        )

    def test_counts_by_length(self, result):
        counts = result.counts_by_length()
        assert counts[1] == len(result.by_length[1])
        assert sum(counts.values()) == result.n_frequent

    def test_frequent_by_length(self, result):
        level1 = result.frequent(1)
        assert all(i.length == 1 for i in level1)

    def test_support_of(self, result):
        itemset, support = next(iter(result.by_length[1].items()))
        assert result.support_of(itemset) == support

    def test_support_of_missing(self, survey_dataset):
        capped = apriori(
            ExactSupportCounter(survey_dataset),
            survey_dataset.schema,
            0.05,
            max_length=1,
        )
        with pytest.raises(MiningError):
            capped.support_of(Itemset.of((0, 0), (1, 0)))

    def test_empty_result(self):
        empty = AprioriResult(min_support=0.5)
        assert empty.max_length == 0
        assert empty.n_frequent == 0
        assert empty.frequent() == {}
