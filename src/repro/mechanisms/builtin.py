"""The built-in mechanisms, ported onto the :class:`Mechanism` protocol.

Six mechanisms register themselves here:

* ``det-gd`` / ``ran-gd`` -- the paper's gamma-diagonal engines
  (:mod:`repro.core.engine`), pipeline-capable and composable;
* ``mask`` / ``c&p`` -- the booleanizing baselines (their perturbed
  representation is a bit matrix, so they are not composable and have
  no chunked path -- exactly the constraints the old per-mechanism
  drivers hard-coded);
* ``warner`` -- randomized response over one binary attribute, the
  textbook special case (and the canonical sensitive-column part of a
  composite);
* ``additive-noise`` -- per-attribute additive noise on category
  indices (round + clip), the Agrawal-Srikant lineage adapted to the
  categorical setting.  Its amplification is typically *unbounded*
  unless the noise spans the whole domain -- the accountant reports
  ``inf``, which is the paper's Section-8 criticism of additive
  schemes made executable.

The four paper mechanisms produce byte-identical results to the
pre-registry drivers: the adapters delegate to the same engines,
estimators and draw streams.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.cut_and_paste import CutAndPastePerturbation
from repro.baselines.mask import MaskPerturbation, bit_matrix
from repro.core.engine import (
    GammaDiagonalPerturbation,
    RandomizedGammaDiagonalPerturbation,
)
from repro.core.marginal import marginal_matrix as gd_marginal_matrix
from repro.core.privacy import amplification as matrix_amplification
from repro.data.dataset import CategoricalDataset
from repro.data.schema import Schema
from repro.exceptions import DataError, MatrixError
from repro.mechanisms.base import (
    MAX_JOINT_ACCUMULATION,
    ColumnarMechanism,
    Mechanism,
    MechanismSpec,
)
from repro.mechanisms.registry import register
from repro.stats.kronecker import KroneckerOperator


class GammaDiagonalMechanism(ColumnarMechanism):
    """DET-GD as a registered mechanism (paper Section 3).

    Wraps :class:`~repro.core.engine.GammaDiagonalPerturbation` and the
    Eq.-28 estimator.
    """

    key = "det-gd"
    display = "DET-GD"

    def __init__(self, schema: Schema, gamma: float):
        self.schema = schema
        self.gamma = float(gamma)
        self.engine = GammaDiagonalPerturbation(schema, gamma)

    @property
    def uniform_width(self) -> int:
        """Two uniforms per record (keep decision + replacement shift)."""
        return self.engine.uniform_width

    def spec(self) -> MechanismSpec:
        """``det-gd(gamma=...)``."""
        return MechanismSpec(self.key, {"gamma": self.gamma})

    def amplification(self) -> float:
        """Exactly ``gamma``: the Eq.-2 constraint is tight."""
        return self.gamma

    def matrix(self) -> np.ndarray:
        """The dense gamma-diagonal matrix over the joint domain."""
        return self.engine.matrix.to_dense()

    def matrix_operator(self):
        """The closed-form gamma-diagonal matrix (never densified)."""
        return self.engine.matrix

    def marginal_matrix(self, positions) -> np.ndarray:
        """Paper Eq. 28: the induced ``a*I + b*J`` marginal, densified."""
        return self.marginal_operator(positions).to_dense()

    def marginal_operator(self, positions):
        """The Eq.-28 marginal in its ``a*I + b*J`` closed form.

        O(1) to build and O(n_Cs) to solve regardless of the joint
        size, which stays exact even when ``joint_size`` exceeds any
        fixed-width integer (the Python-int arithmetic threads through
        the float closed form).
        """
        positions = self._validate_positions(positions)
        return gd_marginal_matrix(
            self.gamma, self.schema.joint_size, self.schema.subset_size(positions)
        )

    # Exact engine delegation (parity with the pre-registry driver).
    def perturb(self, dataset: CategoricalDataset, seed=None) -> CategoricalDataset:
        """Client-side perturbation (same draw stream as the driver had)."""
        return self.engine.perturb(dataset, seed=seed)

    def perturb_chunk(self, records, rng):
        """Chunk protocol: delegate to the engine's sampler."""
        return self.engine.perturb_chunk(records, rng)

    def perturb_joint(self, joint, rng):
        """Chunk protocol fast path: delegate to the engine's sampler."""
        return self.engine.perturb_joint(joint, rng)

    def perturb_from_uniforms(self, records, draws):
        """Fixed-width sampler for composite slicing."""
        return self.engine.perturb_from_uniforms(records, draws)

    def build_estimator(
        self,
        dataset,
        seed=None,
        workers: int = 1,
        chunk_size=None,
        dispatch: str = "pickle",
    ):
        """Perturb and wrap in the Eq.-28 support estimator.

        The direct path (``workers=1``, no ``chunk_size``) perturbs in
        one shot; any pipeline option routes through
        :class:`repro.pipeline.PerturbationPipeline`.  Like
        :meth:`ColumnarMechanism.build_estimator`, the pipeline then
        accumulates joint counts while the joint domain fits
        :data:`~repro.mechanisms.base.MAX_JOINT_ACCUMULATION` and packed
        bitmaps beyond it (see the two estimators' docstrings for the
        memory trade-offs).
        """
        from repro.mining.counting import GammaDiagonalSupportEstimator

        if workers == 1 and chunk_size is None:
            perturbed = self.perturb(dataset, seed=seed)
            return GammaDiagonalSupportEstimator(perturbed, self.gamma)
        from repro.pipeline import (
            DEFAULT_CHUNK_SIZE,
            AccumulatedSupportEstimator,
            BitmapStreamSupportEstimator,
            PerturbationPipeline,
        )

        pipeline = PerturbationPipeline(
            self.engine,
            chunk_size=chunk_size or DEFAULT_CHUNK_SIZE,
            workers=workers,
            dispatch=dispatch,
        )
        if self.schema.joint_size > MAX_JOINT_ACCUMULATION:
            return BitmapStreamSupportEstimator(
                pipeline.accumulate_bitmaps(dataset, seed=seed), self.gamma
            )
        return AccumulatedSupportEstimator(
            pipeline.accumulate(dataset, seed=seed), self.gamma
        )


class RandomizedGammaDiagonalMechanism(GammaDiagonalMechanism):
    """RAN-GD as a registered mechanism (paper Section 4).

    Shares DET-GD's estimator (``E[Ã] = A``) and marginal description;
    only the sampler -- and the privacy analysis -- differ.
    """

    key = "ran-gd"
    display = "RAN-GD"

    def __init__(
        self,
        schema: Schema,
        gamma: float,
        relative_alpha: float | None = None,
        alpha: float | None = None,
    ):
        if relative_alpha is None and alpha is None:
            relative_alpha = 0.5
        self.schema = schema
        self.gamma = float(gamma)
        self._by_alpha = alpha is not None
        # Keep the constructor's own parameterisation for spec() --
        # recomputing relative_alpha from the realised alpha would
        # round-trip with floating-point drift and fracture cache keys.
        self._relative_alpha = None if relative_alpha is None else float(relative_alpha)
        self.engine = RandomizedGammaDiagonalPerturbation(
            schema, gamma, alpha=alpha, relative_alpha=relative_alpha
        )

    @property
    def alpha(self) -> float:
        """The randomization half-width of the matrix distribution."""
        return self.engine.alpha

    def spec(self) -> MechanismSpec:
        """``ran-gd(gamma=..., relative_alpha=...)`` (or absolute alpha).

        Echoes the constructor parameters verbatim, so
        ``from_spec(m.spec(), schema)`` rebuilds a bit-identical
        mechanism (and an identical spec -- no float drift).
        """
        if self._by_alpha:
            return MechanismSpec(self.key, {"gamma": self.gamma, "alpha": self.alpha})
        return MechanismSpec(
            self.key, {"gamma": self.gamma, "relative_alpha": self._relative_alpha}
        )

    def amplification(self) -> float:
        """The *designed* bound ``gamma`` -- amplification of ``E[Ã]``.

        This is the bound the mechanism is constructed around (paper
        Section 4): the miner only ever knows the expected matrix, so
        ``gamma`` is what enters reconstruction and what the
        requirement targets.  Individual realisations wander around it
        (see :meth:`realized_amplification`); the paper's Section-4.1
        analysis shows the *determinable* breach nevertheless shrinks
        with ``alpha`` -- the accountant surfaces that range via
        :meth:`posterior_range`.
        """
        return self.gamma

    def realized_amplification(self) -> float:
        """Worst-case Eq.-2 ratio over *realised* matrices.

        At ``r = +alpha`` the diagonal peaks and the off-diagonal
        bottoms out: ``(gamma*x + alpha) / (x - alpha/(n-1))`` --
        ``gamma`` at ``alpha = 0``, growing with the randomization.
        """
        dist = self.engine.distribution
        worst_off = dist.x - dist.alpha / (dist.n - 1)
        if worst_off <= 0.0:
            return float("inf")
        return float((dist.gamma * dist.x + dist.alpha) / worst_off)

    def posterior_range(self, prior: float) -> tuple[float, float, float]:
        """``(rho2(-alpha), rho2(0), rho2(+alpha))`` for a prior."""
        return self.engine.distribution.posterior_range(prior)

    def matrix(self) -> np.ndarray:
        """The *expected* matrix ``E[Ã]`` (what the miner inverts)."""
        return self.engine.expected_matrix.to_dense()

    def matrix_operator(self):
        """The closed-form expected matrix ``E[Ã]`` (never densified)."""
        return self.engine.expected_matrix

    def perturb_from_uniforms(self, records, draws):
        """Fixed-width (three-uniform) sampler for composite slicing."""
        return self.engine.perturb_from_uniforms(records, draws)


class MaskMechanism(Mechanism):
    """MASK as a registered mechanism (Rizvi & Haritsa, VLDB 2002).

    Booleanizes and bit-flips; the perturbed representation is an
    ``(N, M_b)`` bit matrix, so MASK is neither composable nor
    pipeline-capable (the constraints the old driver encoded by simply
    not having the parameters).
    """

    key = "mask"
    display = "MASK"
    supports_pipeline = False

    def __init__(self, schema: Schema, gamma: float):
        self.schema = schema
        self.gamma = float(gamma)
        self.operator = MaskPerturbation.for_gamma(schema, gamma)

    @property
    def p(self) -> float:
        """The privacy-tight bit-retention probability."""
        return self.operator.p

    def spec(self) -> MechanismSpec:
        """``mask(gamma=...)`` -- ``p`` is derived (privacy-tight)."""
        return MechanismSpec(self.key, {"gamma": self.gamma})

    def amplification(self) -> float:
        """``(p/(1-p))^(2M)`` over valid records (paper Section 7)."""
        return self.operator.amplification()

    def perturb(self, dataset: CategoricalDataset, seed=None) -> np.ndarray:
        """Booleanize and flip; returns the ``(N, M_b)`` bit matrix."""
        return self.operator.perturb(dataset, seed=seed)

    def build_estimator(
        self,
        dataset,
        seed=None,
        workers: int = 1,
        chunk_size=None,
        dispatch: str = "pickle",
    ):
        """Perturb and wrap in the tensor-power estimator."""
        from repro.mining.counting import MaskSupportEstimator

        self._reject_pipeline(workers, chunk_size)
        perturbed_bits = self.perturb(dataset, seed=seed)
        return MaskSupportEstimator(self.schema, perturbed_bits, self.operator)


class CutAndPasteMechanism(Mechanism):
    """C&P as a registered mechanism (Evfimievski et al., KDD 2002)."""

    key = "c&p"
    display = "C&P"
    supports_pipeline = False

    def __init__(self, schema: Schema, gamma: float, max_cut: int = 3):
        self.schema = schema
        self.gamma = float(gamma)
        self.max_cut = int(max_cut)
        self.operator = CutAndPastePerturbation.for_gamma(schema, gamma, max_cut)

    @property
    def rho(self) -> float:
        """The privacy-constrained paste probability."""
        return self.operator.rho

    def spec(self) -> MechanismSpec:
        """``c&p(gamma=..., max_cut=...)`` -- ``rho`` is derived."""
        return MechanismSpec(self.key, {"gamma": self.gamma, "max_cut": self.max_cut})

    def amplification(self) -> float:
        """Exact worst-case entry ratio of the C&P transition matrix."""
        return self.operator.amplification()

    def perturb(self, dataset: CategoricalDataset, seed=None) -> np.ndarray:
        """Apply the operator; returns the ``(N, M_b)`` bit matrix."""
        return self.operator.perturb(dataset, seed=seed)

    def build_estimator(
        self,
        dataset,
        seed=None,
        workers: int = 1,
        chunk_size=None,
        dispatch: str = "pickle",
    ):
        """Perturb and wrap in the partial-support estimator."""
        from repro.mining.counting import CutAndPasteSupportEstimator

        self._reject_pipeline(workers, chunk_size)
        perturbed_bits = self.perturb(dataset, seed=seed)
        return CutAndPasteSupportEstimator(self.schema, perturbed_bits, self.operator)


class WarnerMechanism(ColumnarMechanism):
    """Warner's randomized response over one binary attribute (1965).

    The smallest FRAPP mechanism -- its matrix is the ``n = 2``
    gamma-diagonal matrix with ``gamma = p/(1-p)`` -- and the canonical
    sensitive-column part of a composite.
    """

    key = "warner"
    display = "WARNER"
    uniform_width = 1

    def __init__(self, schema: Schema, p: float | None = None, gamma: float | None = None):
        if (p is None) == (gamma is None):
            raise MatrixError("pass exactly one of p / gamma")
        if p is None:
            if gamma <= 1.0:
                raise MatrixError(f"gamma must exceed 1, got {gamma}")
            p = gamma / (1.0 + gamma)
        if not 0.5 < p < 1.0:
            raise MatrixError(f"p must lie in (1/2, 1), got {p}")
        if schema.n_attributes != 1 or schema.cardinalities != (2,):
            raise DataError(
                "Warner randomized response needs a single binary attribute, "
                f"got cardinalities {schema.cardinalities}"
            )
        self.schema = schema
        self.p = float(p)

    @property
    def gamma(self) -> float:
        """Amplification of the Warner matrix: ``p / (1 - p)``."""
        return self.p / (1.0 - self.p)

    def spec(self) -> MechanismSpec:
        """``warner(p=...)``."""
        return MechanismSpec(self.key, {"p": self.p})

    def amplification(self) -> float:
        """``p / (1 - p)`` -- the tight Eq.-2 ratio of the 2x2 matrix."""
        return self.gamma

    def matrix(self) -> np.ndarray:
        """``[[p, 1-p], [1-p, p]]``."""
        return bit_matrix(self.p)

    def marginal_matrix(self, positions) -> np.ndarray:
        """The only subset is the attribute itself: the 2x2 matrix."""
        self._validate_positions(positions)
        return bit_matrix(self.p)

    def perturb_from_uniforms(self, records: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Flip each answer with probability ``1 - p`` (one uniform)."""
        flips = draws[:, :1] < (1.0 - self.p)
        return np.where(flips, 1 - records, records).astype(records.dtype)


def _noise_column_matrix(cardinality: int, scale: float) -> np.ndarray:
    """Transition matrix of round-and-clip uniform noise on one column.

    ``v = clip(rint(u + r), 0, card-1)`` with ``r ~ U[-scale, +scale]``:
    entry ``[v, u]`` is the length of ``[u-scale, u+scale]`` falling in
    ``v``'s rounding cell (half-open at the clipped ends), over
    ``2*scale``.
    """
    lo = np.arange(cardinality) - 0.5
    hi = np.arange(cardinality) + 0.5
    lo[0], hi[-1] = -np.inf, np.inf
    matrix = np.empty((cardinality, cardinality))
    for u in range(cardinality):
        left, right = u - scale, u + scale
        matrix[:, u] = (
            np.clip(np.minimum(hi, right) - np.maximum(lo, left), 0.0, None)
            / (2.0 * scale)
        )
    return matrix


class AdditiveNoiseMechanism(ColumnarMechanism):
    """Per-attribute additive uniform noise on category indices.

    The Agrawal-Srikant lineage (the paper's reference [3]) adapted to
    categorical records: each attribute independently receives
    ``r ~ U[-scale, +scale]`` on its category *index*, then rounds and
    clips back into the domain.  One uniform per attribute per record,
    so the mechanism is composable and streamable.

    Its amplification is ``inf`` whenever ``scale`` leaves any
    (original, perturbed) pair unreachable -- additive noise gives no
    strict ``(rho1, rho2)`` guarantee on bounded domains unless the
    noise spans them, which is exactly the Section-8 critique the
    accountant now reports quantitatively.
    """

    key = "additive-noise"
    display = "ADD-NOISE"

    def __init__(self, schema: Schema, scale: float):
        if scale <= 0:
            raise DataError(f"noise scale must be positive, got {scale}")
        self.schema = schema
        self.scale = float(scale)
        self._columns = [
            _noise_column_matrix(card, self.scale) for card in schema.cardinalities
        ]

    @property
    def uniform_width(self) -> int:
        """One uniform per attribute per record."""
        return self.schema.n_attributes

    def spec(self) -> MechanismSpec:
        """``additive-noise(scale=...)``."""
        return MechanismSpec(self.key, {"scale": self.scale})

    def amplification(self) -> float:
        """Product of exact per-column amplifications (``inf`` allowed)."""
        total = 1.0
        for column in self._columns:
            total *= matrix_amplification(column)
        return float(total)

    def matrix(self) -> np.ndarray:
        """Kronecker product of the per-attribute matrices."""
        result = self._columns[0]
        for column in self._columns[1:]:
            result = np.kron(result, column)
        return result

    def matrix_operator(self) -> KroneckerOperator:
        """Implicit per-attribute Kronecker operator (wide-schema safe)."""
        return KroneckerOperator(self._columns)

    def marginal_matrix(self, positions) -> np.ndarray:
        """Kronecker product over the selected attributes (independence)."""
        positions = self._validate_positions(positions)
        result = self._columns[positions[0]]
        for position in positions[1:]:
            result = np.kron(result, self._columns[position])
        return result

    def marginal_operator(self, positions) -> KroneckerOperator:
        """Implicit Kronecker operator over the selected attributes."""
        positions = self._validate_positions(positions)
        return KroneckerOperator([self._columns[p] for p in positions])

    def perturb_from_uniforms(self, records: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Add, round and clip each column from its uniform slice."""
        out = np.empty_like(records)
        for j, card in enumerate(self.schema.cardinalities):
            noise = (2.0 * draws[:, j] - 1.0) * self.scale
            out[:, j] = np.clip(
                np.rint(records[:, j] + noise), 0, card - 1
            ).astype(records.dtype)
        return out


register(
    "det-gd",
    GammaDiagonalMechanism,
    display="DET-GD",
    aliases=("detgd", "gamma-diagonal"),
    paper_order=0,
    pipeline=True,
)
register(
    "ran-gd",
    RandomizedGammaDiagonalMechanism,
    display="RAN-GD",
    aliases=("rangd",),
    paper_order=1,
    pipeline=True,
)
register("mask", MaskMechanism, display="MASK", paper_order=2)
register(
    "c&p",
    CutAndPasteMechanism,
    display="C&P",
    aliases=("cp", "cut-and-paste"),
    paper_order=3,
)
register("warner", WarnerMechanism, display="WARNER", pipeline=True)
register(
    "additive-noise",
    AdditiveNoiseMechanism,
    display="ADD-NOISE",
    aliases=("noise",),
    pipeline=True,
)
