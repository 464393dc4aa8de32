"""Mining protocols over reconstructed supports (paper Sections 6-7).

A mechanism's ``build_estimator`` perturbs a dataset and returns a
support estimator; Apriori (:func:`repro.mining.apriori.apriori`) mines
over it as a deployed miner would, and :func:`mine_per_level` runs the
paper's per-level evaluation protocol.  :func:`mine_exact` is the
reference both are scored against.
"""

from __future__ import annotations

import functools

from repro.data.dataset import CategoricalDataset
from repro.data.schema import Schema
from repro.mining.apriori import AprioriResult, apriori, generate_candidates
from repro.mining.counting import ExactSupportCounter
from repro.mining.itemsets import Itemset, all_items


def mine_exact(
    dataset: CategoricalDataset, min_support: float, max_length=None
) -> AprioriResult:
    """Reference mining on the original (unperturbed) database."""
    return apriori(
        ExactSupportCounter(dataset), dataset.schema, min_support, max_length
    )


@functools.lru_cache(maxsize=32)
def _level_candidates(previous: tuple, level: tuple) -> tuple:
    """Per-level candidates from the item tuples of true levels k-1, k.

    The join over level ``k-1``, then any true level-``k`` itemset it
    missed (it cannot for exact supports, but stay robust to capped
    references).  Memoised by value, because every cell scored against
    one reference derives the same candidates.
    """
    candidates = generate_candidates([Itemset._trusted(items) for items in previous])
    seen = {its.items for its in candidates}
    missed = (Itemset._trusted(items) for items in level if items not in seen)
    return (*candidates, *missed)


def mine_per_level(
    estimator, schema: Schema, min_support: float, true_result: AprioriResult
) -> AprioriResult:
    """Per-level reconstruction evaluation (the Figures-1/2 protocol).

    At each length ``k`` the candidate set is derived from the *true*
    frequent ``(k-1)``-itemsets (all items at ``k = 1``), and an itemset
    is reported frequent when its *reconstructed* support clears
    ``min_support``.  This measures the reconstruction quality of every
    length in isolation -- which is what the paper's per-length error
    figures plot -- without compounding identification errors through
    Apriori's candidate cascade.  (The cascade protocol, i.e. what a
    deployed miner would do, is :func:`repro.mining.apriori.apriori`;
    EXPERIMENTS.md discusses how the two differ at high perturbation
    levels.)
    """
    result = AprioriResult(min_support=min_support)
    for length in sorted(true_result.by_length):
        if length == 1:
            candidates = all_items(schema)
        else:
            levels = true_result.by_length
            candidates = _level_candidates(
                tuple(its.items for its in levels.get(length - 1, {})),
                tuple(its.items for its in levels[length]),
            )
        if not candidates:
            continue
        supports = estimator.supports(candidates)
        level = {
            itemset: float(support)
            for itemset, support in zip(candidates, supports)
            if support >= min_support
        }
        if level:
            result.by_length[length] = level
    return result
