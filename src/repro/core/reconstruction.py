"""Distribution reconstruction (paper Section 2.2).

The miner observes the perturbed counts ``Y`` and estimates the
original counts ``X`` by solving ``Y = A X̂`` (Eq. 7/8).  Four methods
are provided:

* ``"solve"`` -- exact inverse (Eq. 8).  For gamma-diagonal and
  marginal matrices this runs in O(n) through their closed forms.
* ``"lstsq"`` -- least-squares solution; identical to ``"solve"`` for
  invertible ``A`` but defined for rank-deficient systems too.
* ``"portfolio"`` -- ``"solve"``, then ``"lstsq"``: the first answer
  whose relative residual ``||A X̂ - Y|| / ||Y||`` is at most 1e-6.
  Bit-identical to ``"solve"`` wherever the closed form answers, which
  on FRAPP's gamma-diagonal matrices is always (Eq. 17/18 make them
  as well-conditioned as the privacy bound allows); least squares
  rescues singular systems.
* ``"em"`` -- the iterative Bayesian (EM) estimator of Agrawal &
  Aggarwal (PODS 2001), included as a reconstruction ablation: it
  enforces non-negativity by construction, at the cost of iteration.

Raw linear reconstruction can produce negative counts for rare values;
:func:`clip_counts` implements the standard clip-to-zero postprocessing
used before mining.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import FrappError, ReconstructionError, SolverError
from repro.stats.linalg import UniformOffDiagonalMatrix, residual_norm

_METHODS = ("solve", "lstsq", "em", "portfolio")

#: Largest relative residual ``||A x - y|| / ||y||`` the ``"portfolio"``
#: method accepts.
_RESIDUAL_RTOL = 1e-6


def _as_dense(matrix) -> np.ndarray:
    if isinstance(matrix, np.ndarray):
        return matrix
    if hasattr(matrix, "to_dense"):
        return matrix.to_dense()
    raise ReconstructionError(f"cannot interpret {type(matrix).__name__} as a matrix")


def reconstruct_counts(matrix, observed, method: str = "solve") -> np.ndarray:
    """Estimate original counts ``X̂`` from perturbed counts ``Y``.

    Parameters
    ----------
    matrix:
        The perturbation matrix ``A``: a numpy array, anything with a
        ``solve``/``to_dense`` method (:class:`PerturbationMatrix`,
        :class:`UniformOffDiagonalMatrix`), oriented ``A[v, u]``.
    observed:
        The perturbed count (or fractional-distribution) vector ``Y``.
    method:
        One of ``"solve"``, ``"lstsq"``, ``"em"``, ``"portfolio"``
        (see the module docstring).

    Returns
    -------
    numpy.ndarray
        ``X̂`` as floats; may contain negatives for the linear methods.

    Raises
    ------
    SolverError
        With ``"portfolio"``, when neither the closed form nor least
        squares meets the residual bound; the message gives each
        method's reason.
    """
    if method not in _METHODS:
        raise ReconstructionError(f"method must be one of {_METHODS}, got {method!r}")
    observed = np.asarray(observed, dtype=float)
    if observed.ndim != 1:
        raise ReconstructionError(f"observed counts must be 1-D, got {observed.shape}")

    if method == "solve":
        if hasattr(matrix, "solve") and not isinstance(matrix, np.ndarray):
            return matrix.solve(observed)
        dense = _as_dense(matrix)
        try:
            return np.linalg.solve(dense, observed)
        except np.linalg.LinAlgError as exc:
            raise ReconstructionError(f"singular system: {exc}") from exc

    if method == "lstsq":
        dense = _as_dense(matrix)
        solution, *_ = np.linalg.lstsq(dense, observed, rcond=None)
        return solution

    if method == "portfolio":
        reasons = []
        for lane in ("solve", "lstsq"):
            try:
                estimate = reconstruct_counts(matrix, observed, method=lane)
            except (FrappError, np.linalg.LinAlgError) as error:
                reasons.append(f"{lane}: {type(error).__name__}: {error}")
                continue
            residual = residual_norm(matrix, estimate, observed)
            if residual <= _RESIDUAL_RTOL:
                return estimate
            reasons.append(f"{lane}: residual {residual:.3e} > {_RESIDUAL_RTOL:.0e}")
        raise SolverError("no method met the residual bound: " + "; ".join(reasons))

    return em_reconstruct(_as_dense(matrix), observed)


def em_reconstruct(
    dense: np.ndarray,
    observed: np.ndarray,
    n_iterations: int = 500,
    tol: float = 1e-10,
) -> np.ndarray:
    """Iterative Bayesian reconstruction (EM fixed point).

    Treats the original distribution as the latent mixture weights of
    the columns of ``A`` and runs the multiplicative EM update

        ``p_u <- p_u * sum_v A[v,u] * y_v / (A p)_v``

    starting from uniform.  Always returns a non-negative vector with
    the same total mass as ``observed``.  Converging to a constrained
    optimum with nonzero residual (the best any non-negative estimate
    can do on inconsistent observations) is success, not failure.
    """
    dense = np.asarray(dense, dtype=float)
    observed = np.asarray(observed, dtype=float)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise ReconstructionError(f"EM needs a square dense matrix, got {dense.shape}")
    if np.any(observed < 0):
        raise ReconstructionError("EM reconstruction needs non-negative observations")
    total = observed.sum()
    if total == 0:
        return np.zeros_like(observed)

    y = observed / total
    p = np.full(dense.shape[1], 1.0 / dense.shape[1])
    for _ in range(n_iterations):
        mixture = dense @ p
        # Guard cells the current estimate gives zero mass.
        ratio = np.divide(y, mixture, out=np.zeros_like(y), where=mixture > 0)
        updated = p * (dense.T @ ratio)
        norm = updated.sum()
        if norm == 0:
            raise ReconstructionError("EM collapsed to the zero vector")
        updated /= norm
        if np.abs(updated - p).max() < tol:
            p = updated
            break
        p = updated
    return p * total


def clip_counts(estimates: np.ndarray, renormalize: bool = False) -> np.ndarray:
    """Clip negative reconstructed counts to zero.

    With ``renormalize`` the clipped vector is rescaled to preserve the
    original total mass (when any positive mass remains).
    """
    estimates = np.asarray(estimates, dtype=float)
    clipped = np.clip(estimates, 0.0, None)
    if renormalize:
        total, clipped_total = estimates.sum(), clipped.sum()
        if clipped_total > 0 and total > 0:
            clipped = clipped * (total / clipped_total)
    return clipped


def reconstruction_matrix_for(matrix) -> UniformOffDiagonalMatrix | np.ndarray:
    """Convenience: the object to pass to :func:`reconstruct_counts`.

    Gamma-diagonal-like objects expose ``as_uniform_family``; everything
    else falls back to a dense array.
    """
    if hasattr(matrix, "as_uniform_family"):
        return matrix.as_uniform_family()
    return _as_dense(matrix)
