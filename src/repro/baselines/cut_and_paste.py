"""The Cut-and-Paste randomization operator (Evfimievski et al., KDD 2002).

C&P perturbs an itemset-style record (here: the booleanized categorical
record, which always carries exactly ``M`` ones) with parameters
``(K, rho)``:

1. draw ``j`` uniformly from ``{0, ..., K}`` and set ``w = min(j, M)``;
2. *cut*: copy ``w`` uniformly-chosen one-bits of the record into the
   output;
3. *paste*: every other universe bit (the remaining one-bits *and* the
   zero-bits alike) is set in the output independently with
   probability ``rho``.

Analytical machinery provided alongside the operator:

* :func:`cut_size_distribution` -- the distribution of ``w``;
* :func:`transition_probability` -- exact ``P(u -> v)``, which depends
  on ``(|u ∩ v|, |v|)`` only;
* :func:`amplification` / :func:`rho_for_gamma` -- exact worst-case
  entry ratio of the transition matrix and the privacy-constrained
  choice of ``rho`` (the paper's Eq.-2 constraint).  Note: the paper
  reports ``rho = 0.494`` for ``gamma = 19, K = 3``; our exact
  amplification gives ``rho ~ 0.46`` for the same setting (the paper's
  Eq.-12 rendering of the matrix is ambiguous in the arXiv source); the
  discrepancy is conservative -- we paste slightly *less*, which favours
  C&P's accuracy -- and does not affect the qualitative comparison.
* :func:`partial_support_matrix` -- the ``(k+1) x (k+1)`` transition
  matrix between itemset-intersection sizes used for support
  reconstruction and for the Fig.-4 condition numbers.  Reconstruction
  needs only the full-intersection component of its minimum-norm
  solution, one fixed row per ``k``
  (:meth:`CutAndPastePerturbation.support_row`).
"""

from __future__ import annotations

from math import comb

import numpy as np

from repro.baselines.mask import bit_columns
from repro.data.dataset import CategoricalDataset
from repro.data.schema import Schema
from repro.exceptions import DataError, MatrixError, PrivacyError
from repro.stats.rng import as_generator


def cut_size_distribution(n_ones: int, max_cut: int) -> np.ndarray:
    """Distribution of the cut size ``w = min(j, n_ones)``, ``j ~ U{0..K}``.

    Returns a vector of length ``n_ones + 1``; entry ``w`` is ``P(w)``.
    """
    if n_ones < 0 or max_cut < 0:
        raise MatrixError(f"need n_ones, max_cut >= 0, got ({n_ones}, {max_cut})")
    probs = np.zeros(n_ones + 1)
    for j in range(max_cut + 1):
        probs[min(j, n_ones)] += 1.0 / (max_cut + 1)
    return probs


def transition_probability(
    overlap: int, target_ones: int, n_ones: int, n_bits: int, max_cut: int, rho: float
) -> float:
    """Exact ``P(u -> v)`` for records with ``|u| = n_ones`` ones.

    Parameters
    ----------
    overlap:
        ``s = |u ∩ v|``.
    target_ones:
        ``|v|``.
    n_ones:
        ``|u| = M`` (fixed for booleanized categorical records).
    n_bits:
        Universe size ``M_b``.
    max_cut:
        The operator parameter ``K``.
    rho:
        Paste probability.

    Notes
    -----
    Conditioning on the cut set ``C`` (``|C| = w``): the output matches
    ``v`` iff ``C ⊆ u ∩ v`` (probability ``C(s,w)/C(n_ones,w)``), the
    ``|v| - w`` remaining target bits are pasted (``rho`` each) and the
    other ``n_bits - |v|`` bits are not (``1 - rho`` each).  Hence

        ``P = sum_w P(w) * C(s,w)/C(M,w) * rho^(|v|-w) * (1-rho)^(Mb-|v|)``.
    """
    if not 0 <= overlap <= min(n_ones, target_ones):
        raise MatrixError(
            f"overlap {overlap} impossible for |u|={n_ones}, |v|={target_ones}"
        )
    if target_ones > n_bits:
        raise MatrixError(f"|v|={target_ones} exceeds universe size {n_bits}")
    if not 0.0 < rho < 1.0:
        raise MatrixError(f"rho must lie in (0, 1), got {rho}")
    pw = cut_size_distribution(n_ones, max_cut)
    total = 0.0
    for w in range(min(overlap, target_ones) + 1):
        if pw[w] == 0.0:
            continue
        cut_inside = comb(overlap, w) / comb(n_ones, w)
        total += pw[w] * cut_inside * rho ** (target_ones - w)
    return total * (1.0 - rho) ** (n_bits - target_ones)


def amplification(n_ones: int, max_cut: int, rho: float) -> float:
    """Exact worst-case within-row entry ratio of the C&P matrix.

    For fixed ``v``, ``P(u -> v)`` depends on ``u`` only through
    ``s = |u ∩ v|`` and is increasing in ``s``, so the worst ratio is
    ``g(M)/g(0)`` with ``g(s) = sum_w P(w) C(s,w)/C(M,w) rho^{-w}``:

        ``amplification = sum_w P(w) rho^{-w} / P(0)``.
    """
    if not 0.0 < rho < 1.0:
        raise MatrixError(f"rho must lie in (0, 1), got {rho}")
    pw = cut_size_distribution(n_ones, max_cut)
    if pw[0] == 0.0:
        return float("inf")
    weighted = sum(p * rho ** (-w) for w, p in enumerate(pw))
    return float(weighted / pw[0])


def rho_for_gamma(gamma: float, n_ones: int, max_cut: int, tol: float = 1e-12) -> float:
    """Smallest paste probability satisfying amplification <= gamma.

    Smaller ``rho`` pastes fewer random items (better accuracy) but
    increases amplification; this returns the accuracy-optimal feasible
    value via bisection.  Raises :class:`PrivacyError` when even
    ``rho -> 1`` cannot meet the bound (i.e. ``K + 1 > gamma``-ish
    regimes where the cut itself is too revealing).
    """
    if gamma <= 1.0:
        raise PrivacyError(f"gamma must exceed 1, got {gamma}")
    if max_cut == 0:
        # Pure paste: output independent of input, amplification 1.
        raise PrivacyError("K=0 satisfies any gamma but transmits no information")
    hi = 1.0 - 1e-9
    if amplification(n_ones, max_cut, hi) > gamma:
        raise PrivacyError(
            f"no rho in (0,1) satisfies gamma={gamma} for K={max_cut} (cut too revealing)"
        )
    lo = 1e-9
    if amplification(n_ones, max_cut, lo) <= gamma:
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if amplification(n_ones, max_cut, mid) <= gamma:
            hi = mid
        else:
            lo = mid
    return hi


def partial_support_matrix(n_ones: int, max_cut: int, rho: float, k: int) -> np.ndarray:
    """Transition matrix between itemset-intersection sizes.

    Entry ``[l_out, l_in]`` is the probability that a perturbed record
    intersects a fixed ``k``-itemset in ``l_out`` items given the
    original record (with ``n_ones`` ones) intersected it in ``l_in``.
    Used both for support reconstruction (solve against the observed
    intersection-size distribution; the original support is entry
    ``k``) and for the Fig.-4 condition numbers.

    Derivation: conditioned on cut size ``w``, the number ``c`` of cut
    bits landing inside the itemset is hypergeometric
    ``(M, l_in, w)``; the remaining ``k - c`` itemset bits are pasted
    independently, adding ``Binomial(k - c, rho)``.
    """
    if k < 1:
        raise MatrixError(f"itemset length must be >= 1, got {k}")
    if not 0.0 < rho < 1.0:
        raise MatrixError(f"rho must lie in (0, 1), got {rho}")
    if k > n_ones:
        raise MatrixError(
            f"a {k}-itemset cannot intersect records with only {n_ones} ones in >k bits; "
            f"need k <= {n_ones} for categorical records"
        )
    pw = cut_size_distribution(n_ones, max_cut)
    matrix = np.zeros((k + 1, k + 1))
    for l_in in range(k + 1):
        for w, p_w in enumerate(pw):
            if p_w == 0.0:
                continue
            # c = cut bits inside the itemset: hypergeometric support.
            c_lo = max(0, w - (n_ones - l_in))
            c_hi = min(w, l_in)
            for c in range(c_lo, c_hi + 1):
                hyper = comb(l_in, c) * comb(n_ones - l_in, w - c) / comb(n_ones, w)
                remaining = k - c
                for add in range(remaining + 1):
                    binom = (
                        comb(remaining, add)
                        * rho ** add
                        * (1.0 - rho) ** (remaining - add)
                    )
                    matrix[c + add, l_in] += p_w * hyper * binom
    return matrix


class CutAndPastePerturbation:
    """C&P over a categorical schema, via booleanization.

    Parameters
    ----------
    schema:
        Categorical schema (fixes ``M`` and ``M_b``).
    max_cut:
        The operator parameter ``K``.
    rho:
        Paste probability; use :meth:`for_gamma` to pick the
        privacy-optimal value.
    """

    def __init__(self, schema: Schema, max_cut: int, rho: float):
        if max_cut < 0:
            raise MatrixError(f"K must be >= 0, got {max_cut}")
        if not 0.0 < rho < 1.0:
            raise MatrixError(f"rho must lie in (0, 1), got {rho}")
        self.schema = schema
        self.max_cut = int(max_cut)
        self.rho = float(rho)
        # Partial-support matrices and their support rows by itemset
        # length, built on first use.
        self._matrices: dict[int, np.ndarray] = {}
        self._rows: dict[int, np.ndarray] = {}

    @classmethod
    def for_gamma(
        cls, schema: Schema, gamma: float, max_cut: int = 3
    ) -> "CutAndPastePerturbation":
        """Privacy-constrained configuration (paper uses ``K = 3``)."""
        rho = rho_for_gamma(gamma, schema.n_attributes, max_cut)
        return cls(schema, max_cut, rho)

    def amplification(self) -> float:
        """Worst-case entry ratio of this configuration's matrix."""
        return amplification(self.schema.n_attributes, self.max_cut, self.rho)

    def perturb(self, dataset: CategoricalDataset, seed=None) -> np.ndarray:
        """Apply the operator; returns an ``(N, M_b)`` 0/1 array.

        Like MASK, the output rows are generic boolean vectors, not
        valid categorical records.
        """
        if dataset.schema != self.schema:
            raise DataError("dataset schema does not match the perturbation schema")
        rng = as_generator(seed)
        bits = dataset.to_boolean()
        n_records, n_bits = bits.shape
        m = self.schema.n_attributes

        # Paste phase: every bit independently with probability rho.
        out = (rng.random((n_records, n_bits)) < self.rho).astype(np.int8)
        if n_records == 0:
            return out

        # Cut phase: w_i = min(j_i, M) one-bits copied through.
        cut_sizes = np.minimum(rng.integers(0, self.max_cut + 1, size=n_records), m)
        one_positions = np.argwhere(bits == 1)[:, 1].reshape(n_records, m)
        # Random per-record permutation of the M one-positions; take the
        # first w_i as the cut set.
        order = np.argsort(rng.random((n_records, m)), axis=1)
        shuffled = np.take_along_axis(one_positions, order, axis=1)
        for w in range(1, m + 1):
            rows = np.nonzero(cut_sizes == w)[0]
            if rows.size == 0:
                continue
            cols = shuffled[rows, :w]
            out[rows[:, None], cols] = 1
        return out

    # ------------------------------------------------------------------
    # support reconstruction
    # ------------------------------------------------------------------
    def reconstruction_matrix(self, k: int) -> np.ndarray:
        """Partial-support matrix for ``k``-itemsets.

        Built once per ``k`` and returned read-only: every caller shares
        the cached array.
        """
        matrix = self._matrices.get(k)
        if matrix is None:
            matrix = partial_support_matrix(
                self.schema.n_attributes, self.max_cut, self.rho, k
            )
            matrix.setflags(write=False)
            self._matrices[k] = matrix
        return matrix

    def support_row(self, k: int) -> np.ndarray:
        """Row ``k`` of the pseudo-inverse of :meth:`reconstruction_matrix`.

        The support estimate of a ``k``-itemset is the full-intersection
        component of the minimum-norm least-squares solution of the
        partial-support system, which is this row times the observed
        intersection-size distribution.  Built once per ``k`` with one
        ``lstsq`` and returned read-only.
        """
        row = self._rows.get(k)
        if row is None:
            # For k > K the matrix is exactly rank-deficient (the cut
            # carries at most K items of evidence), so use least squares:
            # it returns the minimum-norm solution instead of
            # numerically-exploded garbage.  This is the mechanism behind
            # the paper's observation that C&P "does not work after
            # 3-length itemsets".
            solution, *_ = np.linalg.lstsq(
                self.reconstruction_matrix(k), np.eye(k + 1), rcond=None
            )
            row = solution[k].copy()
            row.setflags(write=False)
            self._rows[k] = row
        return row

    def solve_intersection_sizes(self, observed: np.ndarray) -> np.ndarray:
        """Support estimates from observed intersection-size distributions.

        ``observed`` is one length-``k + 1`` distribution (entry ``l``
        is the share of perturbed records that meet the ``k``-itemset in
        ``l`` items) or a ``(..., k + 1)`` stack of them, one row per
        candidate.  Returns each row's full-intersection component of
        the minimum-norm solution: the elementwise product with
        :meth:`support_row`, summed over the last axis, so a row's
        estimate is the same float whichever batch it arrives in.  The
        input is not modified.
        """
        observed = np.asarray(observed, dtype=float)
        if observed.ndim == 0:
            raise DataError("need an intersection-size distribution, got a scalar")
        return (observed * self.support_row(observed.shape[-1] - 1)).sum(axis=-1)

    def estimate_itemset_support(self, perturbed_bits: np.ndarray, positions) -> float:
        """Estimated fractional support of the itemset on given bit columns.

        Counts the distribution of intersection sizes with the itemset
        (its bit columns: distinct in-range integers, see
        :func:`~repro.baselines.mask.bit_columns`) in the perturbed
        database and solves the partial-support system
        (:meth:`solve_intersection_sizes`); the original support is the
        full-intersection component.
        """
        bits, positions = bit_columns(perturbed_bits, positions)
        k = len(positions)
        n_records = bits.shape[0]
        if n_records == 0:
            raise DataError("empty perturbed database")
        intersections = bits[:, positions].sum(axis=1).astype(np.int64)
        observed = np.bincount(intersections, minlength=k + 1).astype(float) / n_records
        return float(self.solve_intersection_sizes(observed))
