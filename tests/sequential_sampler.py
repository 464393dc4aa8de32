"""The paper's Section-5 DET-GD sampler, kept as an equivalence oracle.

:class:`repro.core.engine.GammaDiagonalPerturbation` samples the
gamma-diagonal transition directly over joint indices: keep the record
with probability ``gamma*x``, otherwise draw a uniformly random other
record.  The paper instead perturbs column by column (Eq. 26), with
per-record cost proportional to ``sum_j |S^j_U|``.  Both realise the
same transition matrix; the engine and property tests check the
engine's sampler against this one.
"""

from __future__ import annotations

import numpy as np

from repro.core.gamma_diagonal import GammaDiagonalMatrix
from repro.data.dataset import CategoricalDataset
from repro.stats.rng import as_generator


def perturb_sequential(
    gamma: float, dataset: CategoricalDataset, seed=None
) -> CategoricalDataset:
    """The paper's dependent column-by-column algorithm (Eq. 26).

    Column ``j`` is perturbed using the original record *and* the
    perturbed values of columns ``< j``: while every previous column
    matched its original, keep column ``j`` with probability
    ``(gamma + n/n_j - 1) x / prod_k p_k``; after the first mismatch,
    the conditional distribution collapses to uniform over ``S^j_U``.
    """
    schema = dataset.schema
    matrix = GammaDiagonalMatrix(n=schema.joint_size, gamma=gamma)
    rng = as_generator(seed)
    gamma, x = matrix.gamma, matrix.x
    n = schema.joint_size
    cards = schema.cardinalities
    prefix = schema.prefix_products()
    records = dataset.records
    out = np.empty_like(records)
    for i, record in enumerate(records):
        matched = True
        prod = 1.0
        for j, card in enumerate(cards):
            ratio = n / prefix[j]
            if matched:
                p_keep = (gamma + ratio - 1.0) * x / prod
                if rng.random() < p_keep:
                    out[i, j] = record[j]
                    prod *= p_keep
                    continue
                # Uniform over the other card-1 values; the realised
                # probability is ratio*x/prod, so prod becomes ratio*x.
                # int() guards the sum against narrow-dtype wraparound.
                shift = rng.integers(1, card)
                out[i, j] = (int(record[j]) + shift) % card
                prod = ratio * x
                matched = False
            else:
                out[i, j] = rng.integers(0, card)
    return CategoricalDataset(schema, out)
