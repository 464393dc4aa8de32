"""Streaming reconstruction and mining front-end.

Everything the miner needs from a gamma-diagonal-perturbed database is
its joint-count vector ``Y``: full-domain reconstruction is
``X̂ = A^{-1} Y`` (paper Eq. 8) and any itemset support over an
attribute subset follows from marginals of ``Y`` through Eq. 28.  The
functions here take the :class:`JointCountAccumulator` produced by a
:class:`~repro.pipeline.executor.PerturbationPipeline` and feed it into
the existing solvers, so the full perturb -> reconstruct -> mine loop
runs over datasets larger than memory:

* :func:`reconstruct_stream` -- accumulated ``Y`` through the O(n)
  closed-form inverse of :mod:`repro.core.reconstruction`;
* :class:`AccumulatedSupportEstimator` -- an Apriori ``SupportSource``
  answering Eq.-28 subset queries from the accumulated vector alone
  (numerically identical to
  :class:`~repro.mining.counting.GammaDiagonalSupportEstimator` on the
  materialised perturbed dataset, because joint counts determine every
  subset count);
* :func:`mine_stream` -- the end-to-end convenience: Apriori over the
  estimator DET-GD's ``build_estimator`` accumulates from the stream.
"""

from __future__ import annotations

import numpy as np

from repro.core.gamma_diagonal import GammaDiagonalMatrix
from repro.core.reconstruction import clip_counts, reconstruct_counts
from repro.data.schema import Schema
from repro.exceptions import MiningError
from repro.mining.apriori import AprioriResult, apriori
from repro.mining.counting import (
    reconstruct_gamma_diagonal_supports,
    supports_from_subset_counts,
)
from repro.mining.kernels import BitmapSupportCounter
from repro.pipeline.accumulator import BitmapAccumulator, JointCountAccumulator
from repro.pipeline.chunking import DEFAULT_CHUNK_SIZE


def reconstruct_stream(
    accumulator: JointCountAccumulator, gamma: float, clip: bool = False
) -> np.ndarray:
    """Reconstruct original joint counts from accumulated perturbed ones.

    Feeds the accumulator's ``Y`` into
    :func:`repro.core.reconstruction.reconstruct_counts` with the
    gamma-diagonal matrix, which inverts in O(n) through its closed
    form (Eq. 8).  With ``clip`` the standard clip-to-zero
    postprocessing is applied.
    """
    matrix = GammaDiagonalMatrix(n=accumulator.schema.joint_size, gamma=gamma)
    estimates = reconstruct_counts(matrix, accumulator.counts)
    return clip_counts(estimates) if clip else estimates


class AccumulatedSupportEstimator:
    """Eq.-28 support estimates from accumulated perturbed counts.

    Parameters
    ----------
    accumulator:
        Joint counts of the *perturbed* stream.
    gamma:
        The amplification bound used at perturbation time (RAN-GD
        streams reconstruct with the same value because ``E[Ã] = A``).
    """

    def __init__(self, accumulator: JointCountAccumulator, gamma: float):
        self.accumulator = accumulator
        self.schema = accumulator.schema
        self.gamma = float(gamma)

    def supports(self, itemsets) -> np.ndarray:
        """Reconstructed fractional supports; may be negative for rare sets."""
        itemsets = list(itemsets)
        if self.accumulator.n_records == 0:
            raise MiningError("cannot estimate supports from an empty stream")
        observed = supports_from_subset_counts(
            self.schema,
            self.accumulator.n_records,
            self.accumulator.subset_counts,
            itemsets,
        )
        return reconstruct_gamma_diagonal_supports(
            self.schema, observed, itemsets, self.gamma
        )


class BitmapStreamSupportEstimator:
    """Eq.-28 support estimates from bitmap-accumulated perturbed chunks.

    The kernel-backed sibling of :class:`AccumulatedSupportEstimator`:
    observed supports come from packed AND/popcount over the accumulated
    perturbed bitmaps instead of joint-count marginalisation, then go
    through the same closed-form inverse -- so for identical perturbed
    records the two estimators return identical floats.  Memory is
    ``O(N * M_b / 8)`` versus the count vector's ``O(|S_U|)``; prefer
    this when the joint domain dwarfs the (packed) record stream or when
    per-level counting speed dominates.
    """

    def __init__(self, accumulator: BitmapAccumulator, gamma: float):
        self.accumulator = accumulator
        self.schema = accumulator.schema
        self.gamma = float(gamma)
        self._counter: BitmapSupportCounter | None = None

    def supports(self, itemsets) -> np.ndarray:
        """Reconstructed fractional supports; may be negative for rare sets."""
        itemsets = list(itemsets)
        if self.accumulator.n_records == 0:
            raise MiningError("cannot estimate supports from an empty stream")
        # Re-merge on demand: folding more chunks into the accumulator
        # invalidates its cached merge, so a fresh `bitmaps` object
        # signals that the counter (and its level cache) is stale.
        bitmaps = self.accumulator.bitmaps
        if self._counter is None or self._counter.bitmaps is not bitmaps:
            self._counter = BitmapSupportCounter(bitmaps)
        observed = self._counter.supports(itemsets)
        return reconstruct_gamma_diagonal_supports(
            self.schema, observed, itemsets, self.gamma
        )


def mine_stream(
    source,
    schema: Schema,
    gamma: float,
    min_support: float,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: int = 1,
    seed=None,
    max_length=None,
) -> AprioriResult:
    """Privacy-preserving mining over a chunked record stream.

    Apriori over DET-GD's
    :meth:`~repro.mechanisms.builtin.GammaDiagonalMechanism.build_estimator`,
    which folds the perturbed stream into joint counts (one chunk plus
    the ``(|S_U|,)`` vector in memory, so ``source`` may be arbitrarily
    large, e.g. :func:`repro.data.io.iter_csv_chunks` or an open
    ``.frd``) or, past :data:`~repro.mechanisms.base.MAX_JOINT_ACCUMULATION`,
    packed bitmaps; both mine identical itemsets for the same seed.
    """
    from repro.mechanisms.builtin import GammaDiagonalMechanism

    estimator = GammaDiagonalMechanism(schema, gamma).build_estimator(
        source, seed=seed, workers=workers, chunk_size=chunk_size
    )
    return apriori(estimator, schema, min_support, max_length)
