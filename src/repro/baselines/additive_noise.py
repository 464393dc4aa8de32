"""Additive-noise perturbation (Agrawal & Srikant, SIGMOD 2000).

The pioneering privacy-preserving-mining scheme and the paper's
reference [3]: each client adds independent random noise to a
*continuous* value, and the miner reconstructs the original value
distribution with the iterative Bayesian procedure (the "AS
algorithm").  FRAPP's Section 8 positions matrix perturbation of
categorical data against exactly this line of work, so the library
ships it both as historical context and as the continuous-data
counterpart usable before discretization.

Implementation notes: reconstruction operates on a binned domain (the
same equi-width grids used everywhere else in the repo) and runs the
standard EM fixed point

    ``f'(a) = mean_i [ f_r(w_i - a) f(a) / sum_b f_r(w_i - b) f(b) ]``

over bin midpoints, where ``f_r`` is the noise density and ``w_i`` the
perturbed values.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DataError, ReconstructionError
from repro.stats.rng import as_generator

_NOISE_KINDS = ("uniform", "gaussian")


class AdditiveNoisePerturbation:
    """Add i.i.d. noise to continuous values.

    Parameters
    ----------
    scale:
        Noise scale: half-width of the uniform noise, or the standard
        deviation of the gaussian noise.
    kind:
        ``"uniform"`` (noise in ``[-scale, +scale]``) or ``"gaussian"``.
    """

    def __init__(self, scale: float, kind: str = "uniform"):
        if scale <= 0:
            raise DataError(f"noise scale must be positive, got {scale}")
        if kind not in _NOISE_KINDS:
            raise DataError(f"kind must be one of {_NOISE_KINDS}, got {kind!r}")
        self.scale = float(scale)
        self.kind = kind

    def perturb(self, values, seed=None) -> np.ndarray:
        """Return ``values + noise`` (new array)."""
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            raise DataError(f"values must be 1-D, got shape {values.shape}")
        rng = as_generator(seed)
        if self.kind == "uniform":
            noise = rng.uniform(-self.scale, self.scale, size=values.shape)
        else:
            noise = rng.normal(0.0, self.scale, size=values.shape)
        return values + noise

    def noise_density(self, offsets: np.ndarray) -> np.ndarray:
        """The noise pdf ``f_r`` evaluated at ``offsets``."""
        offsets = np.asarray(offsets, dtype=float)
        if self.kind == "uniform":
            inside = np.abs(offsets) <= self.scale
            return inside / (2.0 * self.scale)
        z = offsets / self.scale
        return np.exp(-0.5 * z * z) / (self.scale * np.sqrt(2.0 * np.pi))

    def interval_privacy(self, confidence: float = 0.95) -> float:
        """Agrawal-Srikant interval privacy at a confidence level.

        The width of the shortest interval containing the noise with
        the given probability -- their original privacy metric.
        """
        if not 0.0 < confidence < 1.0:
            raise DataError(f"confidence must lie in (0, 1), got {confidence}")
        if self.kind == "uniform":
            return 2.0 * self.scale * confidence
        # Imported here: ``statistics`` loads ``decimal`` and ``fractions``,
        # which every other import of the package would pay for.
        from statistics import NormalDist

        return 2.0 * self.scale * NormalDist().inv_cdf(0.5 + confidence / 2.0)

    # ------------------------------------------------------------------
    # reconstruction (the AS algorithm)
    # ------------------------------------------------------------------
    def reconstruct_distribution(
        self,
        perturbed,
        bin_edges,
        n_iterations: int = 200,
        tol: float = 1e-8,
    ) -> np.ndarray:
        """Iterative Bayesian reconstruction of the value distribution.

        Parameters
        ----------
        perturbed:
            The observed ``w_i = x_i + r_i`` values.
        bin_edges:
            Edges of the reconstruction grid (``n_bins + 1`` ascending
            values); the estimate is a probability vector over bins.
        n_iterations, tol:
            EM iteration budget and convergence threshold.

        Returns
        -------
        numpy.ndarray
            Estimated probability of each bin (sums to 1).
        """
        perturbed = np.asarray(perturbed, dtype=float)
        if perturbed.size == 0:
            raise ReconstructionError("no perturbed values to reconstruct from")
        edges = np.asarray(bin_edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise ReconstructionError("bin_edges must hold at least two edges")
        if np.any(np.diff(edges) <= 0):
            raise ReconstructionError("bin_edges must be strictly increasing")

        midpoints = 0.5 * (edges[:-1] + edges[1:])
        # Likelihood kernel: K[i, a] = f_r(w_i - m_a).
        kernel = self.noise_density(perturbed[:, None] - midpoints[None, :])
        # Records whose noise kernel is zero everywhere (far outliers
        # under uniform noise) carry no information about the grid.
        informative = kernel.sum(axis=1) > 0
        if not np.any(informative):
            raise ReconstructionError(
                "no perturbed value is consistent with the reconstruction grid"
            )
        kernel = kernel[informative]

        estimate = np.full(midpoints.size, 1.0 / midpoints.size)
        for _ in range(n_iterations):
            mixture = kernel @ estimate
            weights = kernel / mixture[:, None]
            updated = estimate * weights.mean(axis=0)
            updated /= updated.sum()
            if np.abs(updated - estimate).max() < tol:
                estimate = updated
                break
            estimate = updated
        return estimate
