"""Perturbation engines: client-side record distortion operators.

Three engines are provided:

* :class:`GammaDiagonalPerturbation` -- the paper's DET-GD mechanism:
  keep the record with probability ``gamma*x``, otherwise draw a
  uniformly random other record -- exactly the gamma-diagonal
  transition, O(1) joint-index work per record and fully
  numpy-vectorised.  The paper's Section-5 column-by-column algorithm
  (Eq. 26) realises the same transition matrix; the tests keep it as
  an equivalence oracle.

* :class:`RandomizedGammaDiagonalPerturbation` -- RAN-GD (Section 4):
  each client first draws ``r ~ U[-alpha, alpha]`` and then samples
  with realised diagonal ``gamma*x + r`` (uniform over the others
  otherwise).

* :class:`MatrixPerturbation` -- direct sampling from an arbitrary
  dense perturbation matrix over the joint domain (the naive algorithm
  at the start of Section 5).  Exponential-size domains need not apply;
  it exists for baselines, tests and small analytical studies.

Chunk-splittable sampling
-------------------------
Every engine exposes three layers:

* ``perturb(dataset, seed)`` -- the one-shot whole-dataset API;
* ``perturb_chunk(records, rng)`` -- perturb a raw ``(m, M)`` record
  array, advancing ``rng``;
* ``perturb_joint(joint, rng)`` -- perturb raw joint indices (the
  fastest path: no decode/encode round trip), advancing ``rng``.

All samplers consume randomness as a *fixed-width block of uniforms
per record, in record order* (two uniforms per record for DET-GD,
three for RAN-GD, one for the dense sampler).  This is the invariant
the streaming pipeline (:mod:`repro.pipeline`) relies on: threading a
single generator through consecutive chunks consumes the stream exactly
like the one-shot call, so chunked output is bit-identical to
``perturb()`` regardless of the chunk size.
"""

from __future__ import annotations

import numpy as np

from repro.core.gamma_diagonal import GammaDiagonalMatrix
from repro.core.matrix import DensePerturbationMatrix
from repro.core.randomized import RandomizedGammaDiagonal
from repro.data.dataset import CategoricalDataset
from repro.data.schema import Schema
from repro.exceptions import DataError, MatrixError
from repro.stats.rng import as_generator

# Resolved lazily: repro.mining imports repro.mechanisms (which imports
# this module) at package init, so a top-level import of the kernel
# wrappers would cycle.  By first perturb time everything is loaded.
_native = None


def _native_sampler(n):
    """The fused native sampling module, or None if it must not be used.

    Gates on the extension being importable (and not forced off via
    ``REPRO_FORCE_PYTHON=1``) and on the joint domain fitting the
    kernel's int64 shift arithmetic -- wide composite schemas whose
    ``joint_size`` is an arbitrary-precision Python int never take
    this path.  The fused kernels are float-for-float identical to the
    NumPy sampler, so no opt-in knob exists: availability is the only
    switch.
    """
    global _native
    if _native is None:
        from repro.mining.kernels import native

        _native = native
    if _native.available() and n <= _native.MAX_NATIVE_DOMAIN:
        return _native
    return None


def _realise_diagonal_or_other(
    joint: np.ndarray,
    diagonal_probs: np.ndarray,
    n: int,
    draws: np.ndarray,
) -> np.ndarray:
    """Realise ``V = U`` w.p. ``diag``, else uniform over the other
    ``n - 1`` joint values, from a pre-drawn ``(m, 2)`` uniform block.

    ``draws[:, 0]`` decides keep-vs-replace against ``diagonal_probs``
    and ``draws[:, 1]`` maps to a cyclic shift
    ``1 + floor(draws[:, 1] * (n - 1))`` in ``1..n-1`` -- exact
    uniformity over the *other* values, fully vectorised.  This
    realises any matrix with diagonal ``diag`` and constant
    off-diagonal ``(1 - diag)/(n - 1)`` exactly -- including randomized
    realisations whose diagonal falls *below* the uniform ``1/n``
    (where the naive keep-or-uniform mixture would need a negative keep
    probability).  Shifts are drawn for kept records too so every
    record consumes the same number of uniforms.

    The shifted value ``(joint + shift) mod n`` takes no modulo:
    ``floor(draws[:, 1] * (n - 1)) - (n - 1) + joint`` lies in
    ``[-(n - 1), n - 2]`` and is the answer, or ``n`` short of it when
    negative.  Read as ``uint64``, a negative value lies above every
    in-domain one, so ``minimum(v, v + n)`` adds ``n`` back exactly
    there.  No intermediate wraps for any ``n < 2**63``.  The result
    is a new ``int64`` array; ``joint`` and ``draws`` are only read.
    """
    if joint.shape[0] == 0:
        return joint.copy()
    out = (draws[:, 1] * (n - 1)).astype(np.int64)
    out -= n - 1
    out += joint
    wrapped = out.view(np.uint64)
    np.minimum(wrapped, wrapped + n, out=wrapped)
    np.copyto(out, joint, where=draws[:, 0] < diagonal_probs)
    return out


def _diagonal_or_other(
    schema: Schema,
    records: np.ndarray,
    diagonal_probs: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Record-array front-end of :func:`_realise_diagonal_or_other`.

    The output keeps the input's cell dtype, so compact record chunks
    stay compact through the perturb round trip (no silent ``int64``
    upcast on the hot path).
    """
    n_records = records.shape[0]
    if n_records == 0:
        return records.copy()
    joint = schema.encode(records)
    draws = rng.random((n_records, 2))
    return schema.decode(
        _realise_diagonal_or_other(joint, diagonal_probs, schema.joint_size, draws),
        dtype=records.dtype,
    )


class GammaDiagonalPerturbation:
    """DET-GD: perturb records with the gamma-diagonal matrix.

    Parameters
    ----------
    schema:
        Schema of the records to perturb; fixes ``n = |S_U|``.
    gamma:
        Amplification bound (> 1).
    """

    def __init__(self, schema: Schema, gamma: float):
        self.schema = schema
        self.matrix = GammaDiagonalMatrix(n=schema.joint_size, gamma=gamma)

    @property
    def gamma(self) -> float:
        """The amplification bound of the underlying matrix."""
        return self.matrix.gamma

    def perturb(self, dataset: CategoricalDataset, seed=None) -> CategoricalDataset:
        """Return a new dataset with every record independently perturbed."""
        if dataset.schema != self.schema:
            raise DataError("dataset schema does not match the perturbation schema")
        rng = as_generator(seed)
        # Perturbed values are in-domain by construction: adopt them
        # without the public constructor's validation scan and copy.
        return CategoricalDataset._trusted(
            self.schema, self.perturb_chunk(dataset.records, rng)
        )

    #: Uniforms consumed per record (keep decision + replacement
    #: shift) -- the fixed-width invariant the pipeline and composite
    #: mechanisms rely on.
    uniform_width = 2

    def perturb_chunk(self, records: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Perturb a raw ``(m, M)`` record array, advancing ``rng``."""
        sampler = _native_sampler(self.schema.joint_size)
        if sampler is not None and records.shape[0]:
            # Fully fused: uniforms are drawn from ``rng``'s bit
            # generator inside the kernel (the identical stream of
            # ``rng.random((m, 2))``) and perturbed cells land in the
            # compact output dtype directly.
            return sampler.draw_realise(
                rng,
                self.schema.encode(records),
                self.matrix.diagonal,
                self.schema.joint_size,
                width=2,
                keep_col=0,
                shift_col=1,
                cards=self.schema.cardinalities,
                out_dtype=records.dtype,
            )
        diag = np.full(records.shape[0], self.matrix.diagonal)
        return _diagonal_or_other(self.schema, records, diag, rng)

    def perturb_from_uniforms(self, records: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Perturb records from a pre-drawn ``(m, 2)`` uniform block.

        The deterministic core of the sampler: feeding the block
        ``rng.random((m, 2))`` reproduces :meth:`perturb_chunk`
        exactly.  Composite mechanisms use this to slice one shared
        uniform block across per-attribute parts.
        """
        if records.shape[0] == 0:
            return records.copy()
        joint = self.schema.encode(records)
        sampler = _native_sampler(self.schema.joint_size)
        if sampler is not None:
            return sampler.realise_from_uniforms(
                joint,
                self.matrix.diagonal,
                self.schema.joint_size,
                draws,
                keep_col=0,
                shift_col=1,
                cards=self.schema.cardinalities,
                out_dtype=records.dtype,
            )
        return self.schema.decode(
            _realise_diagonal_or_other(
                joint, self.matrix.diagonal, self.schema.joint_size, draws
            ),
            dtype=records.dtype,
        )

    def perturb_joint(self, joint: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Perturb raw joint indices, advancing ``rng``.

        The streaming pipeline's fast path: no decode/encode round trip.
        Draw-stream-compatible with :meth:`perturb_chunk` (two uniforms
        per record).
        """
        sampler = _native_sampler(self.schema.joint_size)
        if sampler is not None and joint.shape[0]:
            return sampler.draw_realise(
                rng,
                joint,
                self.matrix.diagonal,
                self.schema.joint_size,
                width=2,
                keep_col=0,
                shift_col=1,
            )
        draws = rng.random((joint.shape[0], 2))
        return _realise_diagonal_or_other(
            joint, self.matrix.diagonal, self.schema.joint_size, draws
        )


class RandomizedGammaDiagonalPerturbation:
    """RAN-GD: per-client randomized gamma-diagonal perturbation.

    Parameters
    ----------
    schema, gamma:
        As for :class:`GammaDiagonalPerturbation`.
    alpha:
        Absolute randomization half-width; alternatively pass
        ``relative_alpha`` (the paper's Fig.-3 knob ``alpha/(gamma x)``).
    """

    def __init__(self, schema: Schema, gamma: float, alpha=None, relative_alpha=None):
        if (alpha is None) == (relative_alpha is None):
            raise MatrixError("pass exactly one of alpha / relative_alpha")
        self.schema = schema
        if alpha is not None:
            self.distribution = RandomizedGammaDiagonal(schema.joint_size, gamma, alpha)
        else:
            self.distribution = RandomizedGammaDiagonal.from_relative_alpha(
                schema.joint_size, gamma, relative_alpha
            )

    @property
    def gamma(self) -> float:
        """The amplification bound of the matrix distribution."""
        return self.distribution.gamma

    @property
    def alpha(self) -> float:
        """The randomization half-width of the matrix distribution."""
        return self.distribution.alpha

    @property
    def expected_matrix(self) -> GammaDiagonalMatrix:
        """``E[Ã]`` -- what the miner uses for reconstruction."""
        return self.distribution.expected

    def perturb(self, dataset: CategoricalDataset, seed=None) -> CategoricalDataset:
        """Perturb with an independently randomized matrix per client."""
        if dataset.schema != self.schema:
            raise DataError("dataset schema does not match the perturbation schema")
        rng = as_generator(seed)
        return CategoricalDataset._trusted(
            self.schema, self.perturb_chunk(dataset.records, rng)
        )

    def perturb_chunk(self, records: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Perturb a raw ``(m, M)`` record array, advancing ``rng``.

        Output cells keep the input dtype (compact in, compact out).
        """
        if records.shape[0] == 0:
            return records.copy()
        # Routing through the pre-drawn-block form keeps one code path
        # for the fused native decode; the block is the same
        # ``rng.random((m, 3))`` the joint sampler would draw.
        draws = rng.random((records.shape[0], 3))
        return self.perturb_from_uniforms(records, draws)

    #: Uniforms consumed per record: ``r`` realisation, keep decision,
    #: replacement shift.
    uniform_width = 3

    def perturb_joint(self, joint: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Perturb raw joint indices, advancing ``rng``.

        Consumes exactly three uniforms per record (``r`` realisation,
        keep decision, replacement shift) -- drawn as one ``(m, 3)``
        block so the stream is chunk-splittable even at ``alpha = 0``.
        """
        if joint.shape[0] == 0:
            return joint.copy()
        draws = rng.random((joint.shape[0], 3))
        return self._joint_from_uniforms(joint, draws)

    def _realised_diagonals(self, draws: np.ndarray) -> np.ndarray:
        """Per-record realised diagonals from the blocks' first column."""
        r = (2.0 * draws[:, 0] - 1.0) * self.distribution.alpha
        return self.distribution.diagonal(r)

    def _joint_from_uniforms(self, joint: np.ndarray, draws: np.ndarray) -> np.ndarray:
        diag = self._realised_diagonals(draws)
        sampler = _native_sampler(self.schema.joint_size)
        if sampler is not None and joint.shape[0]:
            # Columns 1/2 of the full contiguous block are indexed in
            # the kernel, avoiding the ``draws[:, 1:]`` view copy.
            return sampler.realise_from_uniforms(
                joint, diag, self.schema.joint_size, draws, keep_col=1, shift_col=2
            )
        return _realise_diagonal_or_other(
            joint, diag, self.schema.joint_size, draws[:, 1:]
        )

    def perturb_from_uniforms(self, records: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Perturb records from a pre-drawn ``(m, 3)`` uniform block.

        Feeding ``rng.random((m, 3))`` reproduces :meth:`perturb_chunk`
        exactly (same block, same layout); see
        :meth:`GammaDiagonalPerturbation.perturb_from_uniforms`.
        """
        if records.shape[0] == 0:
            return records.copy()
        joint = self.schema.encode(records)
        sampler = _native_sampler(self.schema.joint_size)
        if sampler is not None:
            return sampler.realise_from_uniforms(
                joint,
                self._realised_diagonals(draws),
                self.schema.joint_size,
                draws,
                keep_col=1,
                shift_col=2,
                cards=self.schema.cardinalities,
                out_dtype=records.dtype,
            )
        return self.schema.decode(
            self._joint_from_uniforms(joint, draws),
            dtype=records.dtype,
        )


class MatrixPerturbation:
    """Naive direct sampling from an explicit perturbation matrix.

    This is the straightforward algorithm the paper opens Section 5
    with (cost proportional to the joint-domain size), generalised to
    any Markov matrix.  Only usable when ``|S_U|`` is small enough to
    materialise.
    """

    def __init__(self, schema: Schema, matrix):
        self.schema = schema
        if not isinstance(matrix, DensePerturbationMatrix):
            matrix = DensePerturbationMatrix(matrix)
        if matrix.n != schema.joint_size:
            raise MatrixError(
                f"matrix is {matrix.n}x{matrix.n} but the joint domain has size "
                f"{schema.joint_size}"
            )
        self.matrix = matrix
        self._cdf = None

    def _cumulative(self) -> np.ndarray:
        """Column-wise CDFs of ``A`` (cached; last row forced to 1)."""
        if self._cdf is None:
            cdf = np.cumsum(self.matrix.to_dense(), axis=0)
            cdf[-1, :] = 1.0
            self._cdf = cdf
        return self._cdf

    def perturb(self, dataset: CategoricalDataset, seed=None) -> CategoricalDataset:
        """Sample ``V_i ~ A[:, U_i]`` independently for every record."""
        if dataset.schema != self.schema:
            raise DataError("dataset schema does not match the perturbation schema")
        rng = as_generator(seed)
        perturbed = self.perturb_joint(dataset.joint_indices(), rng)
        return CategoricalDataset.from_joint_indices(self.schema, perturbed)

    def perturb_chunk(self, records: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Perturb a raw ``(m, M)`` record array, advancing ``rng``.

        Output cells keep the input dtype (compact in, compact out).
        """
        if records.shape[0] == 0:
            return records.copy()
        return self.schema.decode(
            self.perturb_joint(self.schema.encode(records), rng),
            dtype=records.dtype,
        )

    def perturb_joint(self, joint: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Inverse-CDF sampling: one uniform per record, in record order.

        Records are grouped by original value only for the CDF search,
        not for the draws, so the stream stays chunk-splittable.
        """
        if joint.shape[0] == 0:
            return joint.copy()
        u = rng.random(joint.shape[0])
        cdf = self._cumulative()
        perturbed = np.empty_like(joint)
        for value in np.unique(joint):
            mask = joint == value
            perturbed[mask] = np.searchsorted(cdf[:, value], u[mask], side="right")
        return np.minimum(perturbed, self.matrix.n - 1)
