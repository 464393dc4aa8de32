"""The MASK perturbation scheme (Rizvi & Haritsa, VLDB 2002).

MASK operates on boolean databases: each bit of a record is flipped
independently with probability ``1 - p``.  Categorical records are
first booleanized (one boolean attribute per category; paper Section 7)
so a record with ``M`` categorical attributes becomes ``M_b =
sum_j |S^j|`` booleans of which exactly ``M`` are set.

Key analytical facts used by the paper:

* Over full records the implied perturbation matrix is
  ``A[v, u] = p^k (1-p)^(M_b - k)`` with ``k`` the number of matching
  bits (paper Eq. 11).
* Because valid records carry exactly ``M`` ones, the amplification
  constraint reduces to ``(p/(1-p))^(2M) <= gamma`` (paper Section 7),
  giving the flip parameter :func:`mask_p_for_gamma` -- 0.5610 for
  CENSUS and 0.5524 for HEALTH at ``gamma = 19``.
* For a ``k``-item itemset, the reconstruction matrix is the ``k``-fold
  tensor power of the per-bit matrix ``[[p, 1-p], [1-p, p]]``, whose
  condition number is ``(1/(2p-1))^k`` -- the exponential growth shown
  in Fig. 4.  The per-bit matrix is ``(2p-1) I + (1-p) J``, so
  :meth:`MaskPerturbation.solve_pattern_counts` inverts the power one
  bit axis at a time in closed form
  (:class:`~repro.stats.kronecker.KroneckerOperator`), never forming
  it.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.data.schema import Schema
from repro.exceptions import DataError, MatrixError, PrivacyError
from repro.stats.kronecker import KroneckerOperator
from repro.stats.linalg import UniformOffDiagonalMatrix
from repro.stats.rng import as_generator


def mask_p_for_gamma(gamma: float, n_attributes: int) -> float:
    """Smallest-distortion flip parameter meeting the privacy bound.

    Solves ``(p/(1-p))^(2M) = gamma`` for ``p`` (paper Section 7):
    ``p = gamma^(1/2M) / (1 + gamma^(1/2M))``.  Larger ``p`` means less
    flipping, so this is the *most accurate* MASK configuration that
    still satisfies amplification-``gamma``.
    """
    if gamma <= 1.0:
        raise PrivacyError(f"gamma must exceed 1, got {gamma}")
    if n_attributes < 1:
        raise MatrixError(f"need at least one attribute, got {n_attributes}")
    root = gamma ** (1.0 / (2.0 * n_attributes))
    return root / (1.0 + root)


def bit_matrix(p: float) -> np.ndarray:
    """The per-bit transition matrix ``[[p, 1-p], [1-p, p]]``."""
    if not 0.0 <= p <= 1.0:
        raise MatrixError(f"flip-retention p must lie in [0, 1], got {p}")
    return np.array([[p, 1.0 - p], [1.0 - p, p]])


def itemset_matrix(p: float, k: int) -> np.ndarray:
    """Tensor-power reconstruction matrix for a ``k``-item itemset.

    ``2^k x 2^k``, indexed by bit patterns of the ``k`` item-bits
    (row = perturbed pattern, column = original pattern; most
    significant bit first).  The analytic matrix, for conditioning
    and as the tests' oracle: reconstruction never builds it
    (:meth:`MaskPerturbation.solve_pattern_counts`).
    """
    if k < 1:
        raise MatrixError(f"itemset length must be >= 1, got {k}")
    matrix = bit_matrix(p)
    result = matrix
    for _ in range(k - 1):
        result = np.kron(result, matrix)
    return result


def itemset_condition_number(p: float, k: int) -> float:
    """``cond = (1 / |2p - 1|)^k`` -- exponential in itemset length."""
    if k < 1:
        raise MatrixError(f"itemset length must be >= 1, got {k}")
    gap = abs(2.0 * p - 1.0)
    if gap == 0.0:
        return float("inf")
    return (1.0 / gap) ** k


def full_record_probability(p: float, matches: int, n_bits: int) -> float:
    """Paper Eq. (11): ``A[v,u] = p^k (1-p)^(M_b - k)``."""
    if not 0 <= matches <= n_bits:
        raise MatrixError(f"matches must lie in 0..{n_bits}, got {matches}")
    return (p ** matches) * ((1.0 - p) ** (n_bits - matches))


def bit_columns(perturbed_bits, positions) -> tuple[np.ndarray, list[int]]:
    """``perturbed_bits`` as a 2-D array and ``positions`` as a list.

    The per-itemset scans of MASK and C&P count the columns at
    ``positions``; a repeated, negative, fractional or too-large
    position would count the wrong columns (or raise a bare
    ``IndexError``), so each must be a distinct integer in
    ``[0, perturbed_bits.shape[1])``.  Raises :class:`DataError`
    otherwise.  The width need not be ``M_b``:
    :meth:`MaskPerturbation.perturb_boolean` output has any width.
    """
    bits = np.asarray(perturbed_bits)
    if bits.ndim != 2:
        raise DataError(f"perturbed bits must be 2-D, got shape {bits.shape}")
    columns = list(positions)
    width = bits.shape[1]
    for position in columns:
        if (
            isinstance(position, (bool, np.bool_))
            or not isinstance(position, (int, np.integer))
            or not 0 <= position < width
        ):
            raise DataError(
                f"bit position {position!r} is not a column index in [0, {width})"
            )
    if len(set(columns)) != len(columns):
        raise DataError(f"bit positions repeat: {columns}")
    return bits, [int(position) for position in columns]


class MaskPerturbation:
    """MASK over a categorical schema, via booleanization.

    Parameters
    ----------
    schema:
        Categorical schema; fixes the booleanized width ``M_b``.
    p:
        Bit-retention probability (each bit flips with ``1 - p``).
        Use :func:`mask_p_for_gamma` to satisfy a privacy bound.
    """

    def __init__(self, schema: Schema, p: float):
        if not 0.0 <= p <= 1.0:
            raise MatrixError(f"p must lie in [0, 1], got {p}")
        self.schema = schema
        self.p = float(p)

    @classmethod
    def for_gamma(cls, schema: Schema, gamma: float) -> "MaskPerturbation":
        """The paper's configuration: tightest ``p`` for the bound."""
        return cls(schema, mask_p_for_gamma(gamma, schema.n_attributes))

    def amplification(self) -> float:
        """``(p/(1-p))^(2M)`` over valid (exactly-M-ones) records."""
        if self.p in (0.0, 1.0):
            return float("inf")
        odds = max(self.p, 1.0 - self.p) / min(self.p, 1.0 - self.p)
        return odds ** (2 * self.schema.n_attributes)

    def perturb(self, dataset: CategoricalDataset, seed=None) -> np.ndarray:
        """Booleanize and flip; returns an ``(N, M_b)`` 0/1 array.

        The output is *not* a :class:`CategoricalDataset`: flipped rows
        generally violate the one-hot structure (that information loss
        is intrinsic to MASK and part of why it struggles on categorical
        data).
        """
        if dataset.schema != self.schema:
            raise DataError("dataset schema does not match the perturbation schema")
        rng = as_generator(seed)
        bits = dataset.to_boolean()
        flips = rng.random(bits.shape) < (1.0 - self.p)
        return np.where(flips, 1 - bits, bits).astype(np.int8)

    def perturb_boolean(self, bits: np.ndarray, seed=None) -> np.ndarray:
        """Flip an arbitrary boolean matrix (generic MASK)."""
        bits = np.asarray(bits)
        if bits.ndim != 2:
            raise DataError(f"boolean data must be 2-D, got shape {bits.shape}")
        rng = as_generator(seed)
        flips = rng.random(bits.shape) < (1.0 - self.p)
        return np.where(flips, 1 - bits, bits).astype(np.int8)

    def estimate_pattern_counts(self, perturbed_bits: np.ndarray, positions) -> np.ndarray:
        """Reconstructed counts of all ``2^k`` patterns over bit positions.

        Counts the perturbed pattern distribution of the selected bit
        columns (distinct in-range integers, see :func:`bit_columns`)
        and solves the tensor-power system.  Index ``2^k - 1`` (all
        bits set) is the itemset-support estimate.
        """
        bits, positions = bit_columns(perturbed_bits, positions)
        k = len(positions)
        if k < 1:
            raise DataError("need at least one bit position")
        if k > 20:
            raise DataError(f"pattern space 2^{k} too large to reconstruct")
        sub = bits[:, positions].astype(np.int64)
        weights = 1 << np.arange(k - 1, -1, -1)
        codes = sub @ weights
        observed = np.bincount(codes, minlength=1 << k).astype(float)
        return self.solve_pattern_counts(observed)

    def solve_pattern_counts(self, observed_counts: np.ndarray) -> np.ndarray:
        """Solve the tensor-power system for observed pattern counts.

        ``observed_counts`` is one length-``2^k`` perturbed pattern
        distribution (msb-first codes, as produced by
        :meth:`estimate_pattern_counts`'s counting pass or by the bitmap
        kernel's :func:`repro.mining.kernels.pattern_counts`), or a
        ``(..., 2^k)`` stack of them, one row per candidate.

        The system's matrix is the ``k``-fold Kronecker power of the bit
        matrix ``[[p, 1-p], [1-p, p]] = (2p-1) I + (1-p) J``, so the
        inverse is applied along each of the ``k`` bit axes in closed
        form (:meth:`~repro.stats.kronecker.KroneckerOperator.solve`):
        ``O(k 2^k)`` per row, no LU factorisation and no ``2^k x 2^k``
        matrix.  Each row's solution is bit-identical to solving it
        alone, and the input is not modified.  Raises
        :class:`MatrixError` when ``p == 1/2`` (the bit matrix is
        singular).
        """
        observed = np.asarray(observed_counts, dtype=float)
        size = observed.shape[-1] if observed.ndim else 0
        k = int(size).bit_length() - 1
        if size < 2 or size != (1 << k):
            raise DataError(
                f"pattern counts must have a 2^k length >= 2, got shape {observed.shape}"
            )
        bit = UniformOffDiagonalMatrix(2, 2.0 * self.p - 1.0, 1.0 - self.p)
        return KroneckerOperator([bit] * k).solve(observed)

    def estimate_itemset_support(self, perturbed_bits: np.ndarray, positions) -> float:
        """Estimated fractional support of the itemset on given bits."""
        bits, positions = bit_columns(perturbed_bits, positions)
        if bits.shape[0] == 0:
            raise DataError("empty perturbed database")
        counts = self.estimate_pattern_counts(bits, positions)
        return float(counts[-1] / bits.shape[0])
