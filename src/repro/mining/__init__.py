"""Frequent-itemset mining substrate and its evaluation protocols.

* :mod:`repro.mining.itemsets` -- categorical items and itemsets;
* :mod:`repro.mining.apriori` -- the Apriori miner (from scratch);
* :mod:`repro.mining.counting` -- exact and reconstruction-based
  support sources;
* :mod:`repro.mining.kernels` -- the bit-packed vectorized
  support-counting kernels they count with;
* :mod:`repro.mining.reconstructing` -- exact reference mining and
  the paper's per-level evaluation protocol over a mechanism's
  reconstructed supports (paper Section 7);
* :mod:`repro.mining.rules` -- association-rule post-processing.
"""

from repro.mining.apriori import AprioriResult, apriori, generate_candidates
from repro.mining.classify import NaiveBayesClassifier
from repro.mining.counting import (
    CutAndPasteSupportEstimator,
    ExactSupportCounter,
    GammaDiagonalSupportEstimator,
    MaskSupportEstimator,
)
from repro.mining.itemsets import Itemset, all_items
from repro.mining.kernels import BitmapSupportCounter, TransactionBitmaps
from repro.mining.reconstructing import mine_exact, mine_per_level
from repro.mining.rules import AssociationRule, association_rules

__all__ = [
    "AprioriResult",
    "AssociationRule",
    "BitmapSupportCounter",
    "CutAndPasteSupportEstimator",
    "ExactSupportCounter",
    "GammaDiagonalSupportEstimator",
    "Itemset",
    "MaskSupportEstimator",
    "NaiveBayesClassifier",
    "TransactionBitmaps",
    "all_items",
    "apriori",
    "association_rules",
    "generate_candidates",
    "mine_exact",
    "mine_per_level",
]
