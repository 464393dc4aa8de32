"""The Poisson-Binomial distribution.

``Y = sum_i B(p_i)`` -- the number of successes in ``N`` independent but
*non-identically distributed* Bernoulli trials.  In FRAPP (paper Section
2.2) the count ``Y_v`` of perturbed records taking value ``v`` is exactly
such a variable: trial ``i`` succeeds with probability
``p_i = A[v, U_i]``, which depends on client ``i``'s original value.

The paper uses two facts about this distribution (its reference [25],
Wang 1993):

* ``E[Y] = sum_i p_i`` and ``Var[Y] = sum_i p_i (1 - p_i)``, which
  rearranges to the paper's Eq. (25): ``Var(Y) = N p̄ - sum_i p_i^2``.
* For a fixed mean, the variance is *maximised* when all ``p_i`` are
  equal -- the variability of the ``p_i`` (e.g. through a randomized
  perturbation matrix) can only shrink the fluctuation of ``Y``.  This
  is the engine behind the RAN-GD accuracy argument in Section 4.2.

This module provides an exact implementation (pmf via the standard
O(N^2) dynamic program, closed-form moments) plus the variance
comparison used by the paper's argument.  Nothing in the library needs
it: it is the test oracle for RAN-GD's perturbed-count variance.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataError


class PoissonBinomial:
    """Distribution of the number of successes in independent trials.

    Parameters
    ----------
    probs:
        1-D array-like of per-trial success probabilities, each in
        ``[0, 1]``.

    Examples
    --------
    >>> pb = PoissonBinomial([0.5, 0.5])
    >>> pb.pmf().tolist()
    [0.25, 0.5, 0.25]
    >>> pb.mean
    1.0
    """

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1:
            raise DataError(f"probs must be 1-D, got shape {probs.shape}")
        if probs.size == 0:
            raise DataError("probs must contain at least one trial")
        if np.any(probs < 0) or np.any(probs > 1):
            raise DataError("all probabilities must lie in [0, 1]")
        self.probs = probs

    # ------------------------------------------------------------------
    # moments
    # ------------------------------------------------------------------
    @property
    def n_trials(self) -> int:
        """Number of Bernoulli trials."""
        return int(self.probs.size)

    @property
    def mean(self) -> float:
        """``E[Y] = sum_i p_i``."""
        return float(self.probs.sum())

    @property
    def variance(self) -> float:
        """``Var[Y] = sum_i p_i (1 - p_i)``.

        Algebraically identical to the paper's Eq. (25),
        ``N p̄ - sum_i p_i^2`` with ``p̄ = mean(p_i)``.
        """
        return float((self.probs * (1.0 - self.probs)).sum())

    def variance_paper_form(self) -> float:
        """Variance written exactly as the paper's Eq. (25).

        Returns ``N * p_bar - sum_i p_i**2``; equal to
        :attr:`variance` up to floating-point rounding.  Kept as a
        separate method so tests can assert the identity.
        """
        n = self.n_trials
        p_bar = self.probs.mean()
        return float(n * p_bar - np.square(self.probs).sum())

    # ------------------------------------------------------------------
    # distribution
    # ------------------------------------------------------------------
    def pmf(self) -> np.ndarray:
        """Exact probability mass function over ``0..N`` successes.

        Uses the standard dynamic program: fold trials in one at a time,
        convolving each Bernoulli into the running distribution.  Cost
        is ``O(N^2)``, which is fine for the checks it serves (``N``
        here is a number of *trials under study*, not a dataset size).
        """
        dist = np.zeros(self.n_trials + 1)
        dist[0] = 1.0
        for k, p in enumerate(self.probs, start=1):
            # After trial k only outcomes 0..k are reachable.
            prev = dist[:k].copy()
            dist[1 : k + 1] = dist[1 : k + 1] * (1.0 - p) + prev * p
            dist[0] *= 1.0 - p
        return dist

    def cdf(self) -> np.ndarray:
        """Cumulative distribution over ``0..N`` successes."""
        return np.cumsum(self.pmf())

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` independent realisations of ``Y``."""
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        draws = rng.random((size, self.n_trials)) < self.probs
        return draws.sum(axis=1)


def variance_reduction_vs_identical(probs) -> float:
    """How much smaller ``Var(Y)`` is than the identical-trials bound.

    Among all probability vectors with the same mean ``p_bar``, the
    Poisson-Binomial variance is maximised when every ``p_i = p_bar``
    (paper Section 4.2, citing Feller).  Returns the non-negative gap

        ``N * p_bar * (1 - p_bar) - Var(Y) = sum_i (p_i - p_bar)^2``.

    A strictly positive value certifies that spreading the ``p_i`` (as
    the randomized matrix of Section 4 does) reduced the fluctuation of
    the perturbed counts.
    """
    pb = PoissonBinomial(probs)
    p_bar = pb.probs.mean()
    identical = pb.n_trials * p_bar * (1.0 - p_bar)
    return float(identical - pb.variance)
