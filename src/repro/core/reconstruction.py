"""Distribution reconstruction (paper Section 2.2).

The miner observes the perturbed counts ``Y`` and estimates the
original counts ``X`` by solving ``Y = A X̂`` (Eq. 7/8) exactly.  A
matrix with its own ``solve`` inverts itself: the gamma-diagonal matrix
and every Eq.-28 marginal in O(n) through their ``a*I + b*J`` closed
forms (Eq. 17/18 make them as well-conditioned as the privacy bound
allows), a Kronecker operator factor by factor.  A dense array goes
through LU.

Raw linear reconstruction can produce negative counts for rare values;
:func:`clip_counts` implements the standard clip-to-zero postprocessing
used before mining.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ReconstructionError


def reconstruct_counts(matrix, observed) -> np.ndarray:
    """Estimate original counts ``X̂ = A^{-1} Y`` from perturbed counts ``Y``.

    Parameters
    ----------
    matrix:
        The perturbation matrix ``A``, oriented ``A[v, u]``: a numpy
        array, or anything with a ``solve`` method
        (:class:`PerturbationMatrix`, :class:`UniformOffDiagonalMatrix`,
        :class:`~repro.stats.kronecker.KroneckerOperator`).
    observed:
        The perturbed count (or fractional-distribution) vector ``Y``.

    Returns
    -------
    numpy.ndarray
        ``X̂`` as floats; may contain negatives.

    Raises
    ------
    ReconstructionError
        When ``observed`` is not a vector, ``matrix`` is neither an
        array nor solvable, or a dense system is singular.
    """
    observed = np.asarray(observed, dtype=float)
    if observed.ndim != 1:
        raise ReconstructionError(f"observed counts must be 1-D, got {observed.shape}")
    if isinstance(matrix, np.ndarray):
        try:
            return np.linalg.solve(matrix, observed)
        except np.linalg.LinAlgError as exc:
            raise ReconstructionError(f"singular system: {exc}") from exc
    if hasattr(matrix, "solve"):
        return matrix.solve(observed)
    raise ReconstructionError(f"cannot interpret {type(matrix).__name__} as a matrix")


def clip_counts(estimates: np.ndarray) -> np.ndarray:
    """Clip negative reconstructed counts to zero."""
    return np.clip(np.asarray(estimates, dtype=float), 0.0, None)
