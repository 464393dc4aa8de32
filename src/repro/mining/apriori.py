"""The Apriori frequent-itemset miner (Agrawal & Srikant, VLDB 1994).

Levelwise mining specialised to categorical itemsets (at most one item
per attribute): level-``k`` candidates are built by joining frequent
``(k-1)``-itemsets that share their first ``k-2`` items and end in items
on *different* attributes, then pruned by downward closure.  Supports
come from a pluggable ``SupportSource`` (exact counter or a
reconstruction estimator), which is how the privacy-preserving variants
reuse the same miner (paper Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from repro.data.schema import Schema
from repro.exceptions import MiningError
from repro.mining.itemsets import Itemset, all_items


@dataclass
class AprioriResult:
    """Outcome of a mining run.

    Attributes
    ----------
    min_support:
        The fractional threshold used.
    by_length:
        ``{length: {itemset: support}}`` for every frequent itemset.
        Supports are the source's values (exact or estimated).
    """

    min_support: float
    by_length: dict = field(default_factory=dict)

    @property
    def max_length(self) -> int:
        """Longest frequent-itemset length found (0 when none)."""
        return max(self.by_length, default=0)

    @property
    def n_frequent(self) -> int:
        """Total number of frequent itemsets across all lengths."""
        return sum(len(level) for level in self.by_length.values())

    def counts_by_length(self) -> dict[int, int]:
        """``{length: count}`` -- the shape of paper Table 3."""
        return {length: len(level) for length, level in sorted(self.by_length.items())}

    def frequent(self, length: int | None = None) -> dict[Itemset, float]:
        """Frequent itemsets (of one length, or all merged)."""
        if length is not None:
            return dict(self.by_length.get(length, {}))
        merged: dict[Itemset, float] = {}
        for level in self.by_length.values():
            merged.update(level)
        return merged

    def support_of(self, itemset: Itemset) -> float:
        """Support of a frequent itemset (raises if not frequent)."""
        level = self.by_length.get(itemset.length, {})
        try:
            return level[itemset]
        except KeyError:
            raise MiningError(f"{itemset} is not frequent in this result") from None


def generate_candidates(frequent_level: list[Itemset]) -> list[Itemset]:
    """Level-``k+1`` candidates from the frequent level-``k`` itemsets.

    Join step: two itemsets sharing their first ``k-1`` items whose last
    items sit on different attributes merge into a ``(k+1)``-candidate.
    Prune step: drop candidates with any infrequent ``k``-subset
    (downward closure).
    """
    ordered = sorted(frequent_level)
    frequent = {itemset.items for itemset in ordered}
    candidates = []
    # Sorted order keeps each prefix's itemsets adjacent, and a join of
    # two of them is again sorted with distinct attributes.
    for prefix, group in groupby(ordered, key=lambda itemset: itemset.items[:-1]):
        tails = [itemset.items[-1] for itemset in group]
        for i, left in enumerate(tails):
            for right in tails[i + 1 :]:
                if left[0] == right[0]:
                    continue
                items = prefix + (left, right)
                # Dropping ``left`` or ``right`` gives a parent; check
                # the subsets that drop a prefix item.
                subsets = (items[:j] + items[j + 1 :] for j in range(len(prefix)))
                if all(subset in frequent for subset in subsets):
                    candidates.append(Itemset._trusted(items))
    return candidates


def apriori(
    support_source,
    schema: Schema,
    min_support: float,
    max_length: int | None = None,
) -> AprioriResult:
    """Mine all frequent itemsets above ``min_support``.

    Parameters
    ----------
    support_source:
        Object with ``supports(itemsets) -> array`` of fractional
        supports (see :mod:`repro.mining.counting`).
    schema:
        The categorical schema (bounds itemset length by ``M``).
    min_support:
        Fractional threshold ``supmin`` in (0, 1]; the paper uses 0.02.
    max_length:
        Optional cap on itemset length (defaults to all ``M`` levels).
    """
    if not 0.0 < min_support <= 1.0:
        raise MiningError(f"min_support must lie in (0, 1], got {min_support}")
    if max_length is None:
        max_length = schema.n_attributes
    if max_length < 1:
        raise MiningError(f"max_length must be >= 1, got {max_length}")

    result = AprioriResult(min_support=min_support)
    candidates = all_items(schema)
    length = 1
    while candidates and length <= max_length:
        supports = np.asarray(support_source.supports(candidates), dtype=float)
        if supports.shape != (len(candidates),):
            raise MiningError(
                f"support source returned shape {supports.shape} for "
                f"{len(candidates)} candidates"
            )
        level = {
            itemset: float(support)
            for itemset, support in zip(candidates, supports)
            if support >= min_support
        }
        if not level:
            break
        result.by_length[length] = level
        candidates = generate_candidates(list(level))
        length += 1
    return result
