"""FP-Growth frequent-itemset mining (Han, Pei & Yin, SIGMOD 2000).

Apriori's exact-mining test oracle: a second, independent miner over
the same categorical-itemset model as :mod:`repro.mining.apriori`, built
on a prefix tree instead of candidate generation and support counting.
``tests/test_fpgrowth.py`` asserts both miners return identical results
on exact counts, up to paper-scale CENSUS.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.exceptions import MiningError
from repro.mining.apriori import AprioriResult
from repro.mining.itemsets import Itemset


@dataclass
class _Node:
    """One FP-tree node: an item with a count and children by item."""

    item: tuple | None
    count: int = 0
    parent: "_Node | None" = None
    children: dict = field(default_factory=dict)


def compress_transactions(dataset: CategoricalDataset):
    """Distinct records as ``((items, weight), ...)``.

    One ``np.unique`` over joint indices plus one batched decode, so
    FP-Growth inserts one weighted path per *distinct* record.  Item
    tuples are ``(attribute, value)`` in attribute order, matching
    :class:`repro.mining.itemsets.Itemset`.
    """
    values, counts = np.unique(dataset.joint_indices(), return_counts=True)
    rows = dataset.schema.decode(values)
    return [
        (tuple((attr, int(value)) for attr, value in enumerate(row)), int(weight))
        for row, weight in zip(rows, counts)
    ]


class _FPTree:
    """Prefix tree over frequency-ordered transactions."""

    def __init__(self):
        self.root = _Node(item=None)
        self.item_nodes: dict = defaultdict(list)

    def insert(self, items, count: int) -> None:
        node = self.root
        for item in items:
            child = node.children.get(item)
            if child is None:
                child = _Node(item=item, parent=node)
                node.children[item] = child
                self.item_nodes[item].append(child)
            child.count += count
            node = child

    def prefix_paths(self, item) -> list[tuple[list, int]]:
        """Conditional pattern base of ``item``: (path, count) pairs."""
        paths = []
        for node in self.item_nodes[item]:
            path = []
            ancestor = node.parent
            while ancestor is not None and ancestor.item is not None:
                path.append(ancestor.item)
                ancestor = ancestor.parent
            path.reverse()
            if path:
                paths.append((path, node.count))
        return paths


def _build_tree(transactions, is_frequent):
    """Count items, order by frequency and build the FP-tree."""
    counts: dict = defaultdict(int)
    for items, weight in transactions:
        for item in items:
            counts[item] += weight
    frequent = {item: c for item, c in counts.items() if is_frequent(c)}
    # Deterministic order: frequency descending, item ascending.
    order = {
        item: rank
        for rank, item in enumerate(
            sorted(frequent, key=lambda it: (-frequent[it], it))
        )
    }
    tree = _FPTree()
    for items, weight in transactions:
        kept = sorted(
            (item for item in items if item in frequent), key=order.__getitem__
        )
        if kept:
            tree.insert(kept, weight)
    return tree, frequent


def _mine_tree(transactions, is_frequent, suffix: tuple, out: dict) -> None:
    tree, frequent = _build_tree(transactions, is_frequent)
    for item, count in frequent.items():
        itemset_items = suffix + (item,)
        out[Itemset(itemset_items)] = count
        conditional = tree.prefix_paths(item)
        if conditional:
            _mine_tree(conditional, is_frequent, itemset_items, out)


def fpgrowth(
    dataset: CategoricalDataset, min_support: float, max_length: int | None = None
) -> AprioriResult:
    """Mine all frequent itemsets of ``dataset`` above ``min_support``.

    Returns the same :class:`~repro.mining.apriori.AprioriResult`
    structure as :func:`repro.mining.apriori.apriori`, with identical
    contents (asserted by tests).
    """
    if not 0.0 < min_support <= 1.0:
        raise MiningError(f"min_support must lie in (0, 1], got {min_support}")
    n = dataset.n_records
    if n == 0:
        raise MiningError("cannot mine an empty dataset")
    if max_length is None:
        max_length = dataset.schema.n_attributes

    # Records as item lists; identical records share one weighted entry.
    transactions = compress_transactions(dataset)

    # Same frequency predicate as Apriori (count/n >= min_support), so
    # float rounding at the threshold cannot make the miners disagree.
    def is_frequent(count):
        return count / n >= min_support

    found: dict = {}
    _mine_tree(transactions, is_frequent, (), found)

    result = AprioriResult(min_support=min_support)
    for itemset, count in found.items():
        if itemset.length > max_length:
            continue
        result.by_length.setdefault(itemset.length, {})[itemset] = count / n
    result.by_length = dict(sorted(result.by_length.items()))
    return result
