"""Unmemoised forms of the helpers that share work across cells.

Test oracles: ``mine_per_level`` takes each level's candidates from a
value-keyed memo, and ``reconstruct_gamma_diagonal_supports`` sizes
each distinct attribute set once.  These are the straightforward
per-call and per-itemset forms those must reproduce exactly.
"""

import numpy as np

from repro.core.marginal import estimate_subset_supports_batch
from repro.mining.apriori import generate_candidates


def per_level_candidates(true_result, length):
    """Candidates for ``length >= 2``: the join over the true level
    ``length - 1``, then every true level-``length`` itemset it missed."""
    previous = list(true_result.by_length.get(length - 1, {}))
    candidates = generate_candidates(previous)
    seen = set(candidates)
    candidates.extend(its for its in true_result.by_length[length] if its not in seen)
    return candidates


def gamma_diagonal_supports(schema, observed, itemsets, gamma):
    """Eq.-28 estimates with one ``schema.subset_size`` call per itemset."""
    itemsets = list(itemsets)
    subset_sizes = np.fromiter(
        (schema.subset_size(itemset.attributes) for itemset in itemsets),
        dtype=np.int64,
        count=len(itemsets),
    )
    return estimate_subset_supports_batch(
        observed, gamma, schema.joint_size, subset_sizes
    )
