"""Linear-algebra helpers for perturbation matrices.

The centrepiece is :class:`UniformOffDiagonalMatrix`, the two-parameter
matrix family ``M = a*I + b*J`` (``J`` = all-ones).  The paper's
gamma-diagonal matrix, its randomized expectation, and every induced
marginal matrix ``A_HL`` of Eq. (28) all live in this family, which
admits closed-form eigenvalues, inverse and condition number.  Working
with the closed forms instead of dense ``n x n`` arrays is what keeps
reconstruction over joint domains of thousands of cells cheap.

Also provided: Markov-matrix validation (paper Eq. 1) and generic
condition numbers used for the baseline mechanisms whose matrices are
*not* of this friendly form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import MatrixError

#: Default absolute tolerance for stochasticity / symmetry checks.
DEFAULT_ATOL = 1e-9


def markov_violation(matrix: np.ndarray) -> float:
    """Worst violation of the Markov conditions of paper Eq. (1).

    ``matrix`` is oriented as in the paper: ``A[v, u] = p(u -> v)``, so
    every *column* must sum to 1 and every entry must be non-negative.
    Returns the maximum of the column-sum deviation and the magnitude of
    the most negative entry (0.0 for a valid Markov matrix).
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise MatrixError(f"expected a 2-D matrix, got shape {matrix.shape}")
    col_dev = float(np.abs(matrix.sum(axis=0) - 1.0).max()) if matrix.size else 0.0
    negativity = float(max(0.0, -matrix.min())) if matrix.size else 0.0
    return max(col_dev, negativity)


def is_markov_matrix(matrix: np.ndarray, atol: float = DEFAULT_ATOL) -> bool:
    """Whether ``matrix`` satisfies paper Eq. (1) within ``atol``."""
    return markov_violation(matrix) <= atol


def is_symmetric(matrix: np.ndarray, atol: float = DEFAULT_ATOL) -> bool:
    """Whether ``matrix`` equals its transpose within ``atol``."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    return bool(np.allclose(matrix, matrix.T, atol=atol, rtol=0.0))


def condition_number(matrix: np.ndarray) -> float:
    """Condition number used throughout the paper.

    For symmetric positive-definite matrices this is
    ``lambda_max / lambda_min`` (paper Theorem 1); we compute it as the
    2-norm condition number ``sigma_max / sigma_min``, which coincides
    with the eigenvalue ratio in the SPD case and stays meaningful for
    the (occasionally non-symmetric) baseline matrices.  Returns
    ``numpy.inf`` for singular matrices.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise MatrixError(f"condition number needs a square matrix, got {matrix.shape}")
    singular_values = np.linalg.svd(matrix, compute_uv=False)
    smallest = singular_values.min()
    if smallest <= 0.0:
        return float("inf")
    return float(singular_values.max() / smallest)


def residual_norm(matrix, estimate, observed) -> float:
    """Relative residual ``||A @ x - y|| / ||y||`` of a candidate solve.

    The acceptance metric of ``reconstruct_counts(method="portfolio")``
    (:mod:`repro.core.reconstruction`): it works for dense arrays and
    for any implicit operator exposing ``matvec`` (the ``a*I + b*J``
    family here, :class:`~repro.stats.kronecker.KroneckerOperator`), so
    a residual check never needs to densify the system it validates.
    For ``y = 0`` the plain (absolute) residual norm is returned.
    """
    estimate = np.asarray(estimate, dtype=float)
    observed = np.asarray(observed, dtype=float)
    if isinstance(matrix, np.ndarray):
        predicted = matrix @ estimate
    elif hasattr(matrix, "matvec"):
        predicted = matrix.matvec(estimate)
    else:
        raise MatrixError(
            f"cannot compute a residual against {type(matrix).__name__} "
            "(need an ndarray or a matvec operator)"
        )
    residual = float(np.linalg.norm(predicted - observed))
    scale = float(np.linalg.norm(observed))
    return residual / scale if scale > 0.0 else residual


@dataclass(frozen=True)
class UniformOffDiagonalMatrix:
    """The matrix family ``M = a*I + b*J`` of size ``n x n``.

    ``diagonal = a + b`` and every off-diagonal entry equals ``b``.
    Closed forms (standard rank-one update results):

    * eigenvalues: ``a + n*b`` with multiplicity 1 (eigenvector **1**)
      and ``a`` with multiplicity ``n - 1``;
    * inverse: ``(1/a) * (I - b/(a + n*b) * J)``;
    * ``M @ x = a*x + b*sum(x)`` -- an O(n) product.

    Attributes
    ----------
    n:
        Matrix dimension.
    a:
        Coefficient of the identity part.
    b:
        Constant off-diagonal value (coefficient of the all-ones part).
    """

    n: int
    a: float
    b: float

    def __post_init__(self):
        if self.n < 1:
            raise MatrixError(f"matrix dimension must be >= 1, got {self.n}")

    # -- scalar structure ------------------------------------------------
    @property
    def diagonal_value(self) -> float:
        """Value of every diagonal entry, ``a + b``."""
        return self.a + self.b

    @property
    def off_diagonal_value(self) -> float:
        """Value of every off-diagonal entry, ``b``."""
        return self.b

    def eigenvalues(self) -> tuple[float, float]:
        """``(a + n*b, a)``: the two distinct eigenvalues.

        The first has multiplicity 1, the second ``n - 1`` (for
        ``n == 1`` only the first exists).
        """
        return (self.a + self.n * self.b, self.a)

    def is_singular(self, atol: float = DEFAULT_ATOL) -> bool:
        """True when either eigenvalue is (numerically) zero."""
        lam1, lam2 = self.eigenvalues()
        if self.n == 1:
            return abs(lam1) <= atol
        return min(abs(lam1), abs(lam2)) <= atol

    def condition_number(self, atol: float = DEFAULT_ATOL) -> float:
        """``lambda_max / lambda_min`` via the closed-form eigenvalues.

        Requires a positive-definite matrix; raises
        :class:`MatrixError` otherwise (matching the paper, which only
        states condition numbers for SPD matrices).  ``atol`` is the
        same singularity tolerance :meth:`is_singular`, :meth:`solve`
        and :meth:`inverse` use: an eigenvalue within ``atol`` of zero
        is treated as not positive definite, so a matrix that
        :meth:`solve` rejects never reports a (meaningless, huge)
        finite condition number.
        """
        lam1, lam2 = self.eigenvalues()
        if self.n == 1:
            if lam1 <= atol:
                raise MatrixError(
                    f"matrix is not positive definite within atol={atol} "
                    f"(eigenvalue {lam1})"
                )
            return 1.0
        if min(lam1, lam2) <= atol:
            raise MatrixError(
                f"matrix is not positive definite within atol={atol} "
                f"(eigenvalues {lam1}, {lam2})"
            )
        return max(lam1, lam2) / min(lam1, lam2)

    # -- linear algebra ---------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialise the full ``n x n`` array (use sparingly)."""
        dense = np.full((self.n, self.n), self.b, dtype=float)
        np.fill_diagonal(dense, self.a + self.b)
        return dense

    def matvec(self, vector: np.ndarray) -> np.ndarray:
        """``M @ vector`` in O(n): ``a*vector + b*sum(vector)``."""
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self.n,):
            raise MatrixError(f"expected vector of shape ({self.n},), got {vector.shape}")
        return self.a * vector + self.b * vector.sum()

    def solve(self, rhs: np.ndarray, atol: float = DEFAULT_ATOL) -> np.ndarray:
        """Solve ``M @ x = rhs`` in O(n) via the Sherman-Morrison form.

        ``x = (rhs - b/(a + n*b) * sum(rhs)) / a``.  ``atol`` is the
        singularity tolerance (shared with :meth:`is_singular`,
        :meth:`inverse` and :meth:`condition_number`).
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.n,):
            raise MatrixError(f"expected vector of shape ({self.n},), got {rhs.shape}")
        if self.is_singular(atol):
            raise MatrixError("matrix is singular; cannot solve")
        bulk = self.a + self.n * self.b
        return (rhs - (self.b / bulk) * rhs.sum()) / self.a

    def inverse(self, atol: float = DEFAULT_ATOL) -> "UniformOffDiagonalMatrix":
        """Closed-form inverse, itself of ``a*I + b*J`` form."""
        if self.is_singular(atol):
            raise MatrixError("matrix is singular; no inverse")
        bulk = self.a + self.n * self.b
        return UniformOffDiagonalMatrix(
            n=self.n, a=1.0 / self.a, b=-self.b / (self.a * bulk)
        )
