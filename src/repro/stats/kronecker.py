"""Implicit Kronecker-product operators (paper Section 5, matrix-free).

FRAPP's decomposed implementation perturbs attribute groups
independently, so the effective joint matrix is the Kronecker product
of the per-group matrices.  Materialising that product is quadratic in
the joint-domain size -- ``prod(|S_Ai|)^2`` cells -- and infeasible
beyond a dozen attributes, yet *every* quantity reconstruction and
privacy accounting need factors over the groups:

* ``(A (x) B) @ v`` applies ``A`` and ``B`` along separate tensor axes
  of ``v`` reshaped to the group dimensions;
* ``(A (x) B)^{-1} = A^{-1} (x) B^{-1}``, so solves factor the same
  way;
* the singular values of ``A (x) B`` are the pairwise products of the
  factors' singular values, so 2-norm condition numbers multiply
  *exactly*.

:class:`KroneckerOperator` packages those identities behind the same
``matvec`` / ``solve`` / ``condition_number`` / ``to_dense`` surface as
:class:`~repro.stats.linalg.UniformOffDiagonalMatrix` and the dense
perturbation matrices, so composites can hand reconstruction an
operator whose memory footprint is the *sum* of the factor sizes, not
their product.  Densification only ever happens through an explicit
:meth:`~KroneckerOperator.to_dense` call, and is capped.

Factor kinds accepted (and normalised at construction):

* :class:`~repro.stats.linalg.UniformOffDiagonalMatrix` -- applied
  through its O(n) closed forms;
* any object with ``as_uniform_family()`` (e.g. the gamma-diagonal
  matrix) -- converted to its ``a*I + b*J`` form;
* nested :class:`KroneckerOperator` -- flattened (Kronecker products
  are associative);
* dense arrays (or objects with ``to_dense()``) -- applied with BLAS
  matmuls / LU solves per tensor axis.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import MatrixError
from repro.stats.linalg import (
    DEFAULT_ATOL,
    UniformOffDiagonalMatrix,
    condition_number as dense_condition_number,
)

#: Largest cell count ``to_dense`` materialises without an explicit
#: override -- 2^24 float64 cells (128 MiB).
DENSE_CELL_CAP = 1 << 24


def _coerce_factor(factor):
    """Normalise one factor to a UniformOffDiagonalMatrix or dense array."""
    if isinstance(factor, UniformOffDiagonalMatrix):
        return factor
    if hasattr(factor, "as_uniform_family"):
        return factor.as_uniform_family()
    if hasattr(factor, "to_dense") and not isinstance(factor, np.ndarray):
        factor = factor.to_dense()
    dense = np.asarray(factor, dtype=float)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise MatrixError(
            f"Kronecker factors must be square matrices, got shape {dense.shape}"
        )
    return dense


def _factor_dim(factor) -> int:
    return factor.n if isinstance(factor, UniformOffDiagonalMatrix) else factor.shape[0]


class KroneckerOperator:
    """The Kronecker product of square factors, as an implicit operator.

    The operator represents ``factors[0] (x) factors[1] (x) ...`` with
    factor 0 most significant -- the same mixed-radix convention as
    :meth:`repro.data.schema.Schema.encode`, so a composite mechanism's
    operator indexes the joint domain exactly like its dense
    ``np.kron`` left-fold did.

    ``n`` (and ``shape``) are exact Python ints: a 50-attribute
    composite's operator reports ``n == 4**50`` without overflow, even
    though no vector of that length is ever materialised for it (wide
    composites only ever solve induced *marginal* operators over small
    attribute subsets).
    """

    def __init__(self, factors):
        flattened: list = []
        for factor in factors:
            if isinstance(factor, KroneckerOperator):
                flattened.extend(factor.factors)
            else:
                flattened.append(_coerce_factor(factor))
        if not flattened:
            raise MatrixError("a Kronecker operator needs at least one factor")
        self.factors = tuple(flattened)
        self.dims = tuple(_factor_dim(f) for f in self.factors)
        self.n = math.prod(self.dims)

    @property
    def shape(self) -> tuple[int, int]:
        """``(n, n)`` as exact Python ints."""
        return (self.n, self.n)

    # ------------------------------------------------------------------
    # factor-by-factor application
    # ------------------------------------------------------------------
    def _apply(self, block: np.ndarray, apply_factor) -> np.ndarray:
        """Apply one transform per factor along its own tensor axis.

        ``block`` is one length-``n`` vector or a ``(..., n)`` stack of
        them.  Each factor sees a ``(rows, dim, rest)`` stack whose
        ``[r]`` slice is the ``(dim, rest)`` matrix row ``r`` gives on
        its own, and every transform works slice by slice, so a row
        comes out bit for bit as it would alone.
        """
        block = np.asarray(block, dtype=float)
        if block.ndim == 0 or block.shape[-1] != self.n:
            raise MatrixError(
                f"expected shape ({self.n},) or (..., {self.n}), got {block.shape}"
            )
        tensor = block.reshape((-1,) + self.dims)
        for axis, factor in enumerate(self.factors, start=1):
            tensor = np.moveaxis(tensor, axis, 1)
            shape = tensor.shape
            flat = tensor.reshape(shape[0], shape[1], self.n // shape[1])
            tensor = np.moveaxis(apply_factor(factor, flat).reshape(shape), 1, axis)
        return tensor.reshape(block.shape)

    @staticmethod
    def _matmat(factor, flat: np.ndarray) -> np.ndarray:
        if isinstance(factor, UniformOffDiagonalMatrix):
            return factor.a * flat + factor.b * flat.sum(axis=1, keepdims=True)
        return factor @ flat

    @staticmethod
    def _solve_columns(factor, flat: np.ndarray, atol: float) -> np.ndarray:
        if isinstance(factor, UniformOffDiagonalMatrix):
            if factor.is_singular(atol):
                raise MatrixError("Kronecker factor is singular; cannot solve")
            bulk = factor.a + factor.n * factor.b
            spread = (factor.b / bulk) * flat.sum(axis=1, keepdims=True)
            return (flat - spread) / factor.a
        try:
            return np.linalg.solve(factor, flat)
        except np.linalg.LinAlgError as exc:
            raise MatrixError(f"Kronecker factor is singular: {exc}") from exc

    def matvec(self, vector: np.ndarray) -> np.ndarray:
        """``(F1 (x) ... (x) Fk) @ vector`` without forming the product.

        ``vector`` may also be a ``(..., n)`` stack; each row's product
        is bit-identical to the call on that row alone.
        """
        return self._apply(vector, self._matmat)

    def solve(self, rhs: np.ndarray, atol: float = DEFAULT_ATOL) -> np.ndarray:
        """Solve ``(F1 (x) ... (x) Fk) x = rhs`` factor by factor.

        Uses ``(A (x) B)^{-1} = A^{-1} (x) B^{-1}``: each factor is
        solved along its own tensor axis (closed form for the
        ``a*I + b*J`` family, LU for dense factors).  ``rhs`` may be a
        ``(..., n)`` stack of right-hand sides, solved in one pass; each
        row's solution is bit-identical to the call on that row alone
        (a dense factor is then factorised once per row).
        """
        return self._apply(rhs, lambda f, flat: self._solve_columns(f, flat, atol))

    # ------------------------------------------------------------------
    # spectral structure
    # ------------------------------------------------------------------
    def is_singular(self, atol: float = DEFAULT_ATOL) -> bool:
        """True when any factor is (numerically) singular."""
        for factor in self.factors:
            if isinstance(factor, UniformOffDiagonalMatrix):
                if factor.is_singular(atol):
                    return True
            elif np.linalg.svd(factor, compute_uv=False).min() <= atol:
                return True
        return False

    def condition_number(self, atol: float = DEFAULT_ATOL) -> float:
        """Product of the factors' 2-norm condition numbers (exact).

        The singular values of a Kronecker product are the pairwise
        products of the factors' singular values, so both the largest
        and the smallest multiply -- the product of factor condition
        numbers *is* the operator's condition number, not a bound.
        """
        total = 1.0
        for factor in self.factors:
            if isinstance(factor, UniformOffDiagonalMatrix):
                total *= factor.condition_number(atol)
            else:
                total *= dense_condition_number(factor)
        return float(total)

    # ------------------------------------------------------------------
    # explicit densification
    # ------------------------------------------------------------------
    def to_dense(self, max_cells: int | None = None) -> np.ndarray:
        """Materialise the full product via an ``np.kron`` left-fold.

        Bit-identical to folding the factors' dense forms directly.
        Guarded by ``max_cells`` (default :data:`DENSE_CELL_CAP`): a
        wide operator raises instead of attempting an allocation that
        could not succeed.
        """
        cap = DENSE_CELL_CAP if max_cells is None else int(max_cells)
        if self.n * self.n > cap:
            raise MatrixError(
                f"refusing to densify a {self.n} x {self.n} Kronecker product "
                f"({self.n * self.n} cells > cap {cap}); use the implicit "
                "matvec/solve interface instead"
            )
        result = None
        for factor in self.factors:
            dense = (
                factor.to_dense()
                if isinstance(factor, UniformOffDiagonalMatrix)
                else factor
            )
            result = dense if result is None else np.kron(result, dense)
        return result

    def __repr__(self) -> str:
        return f"KroneckerOperator(dims={self.dims}, n={self.n})"
