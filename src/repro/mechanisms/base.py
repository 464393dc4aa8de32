"""The first-class ``Mechanism`` protocol (FRAPP's framework, executable).

The paper's central claim is architectural: *any* perturbation operator
with the amplification property is a mechanism, and mining only needs
three things from it -- a sampler, a description of its perturbation
matrix, and a support estimator for its output representation.  This
module makes that bundle a first-class object:

* :class:`MechanismSpec` -- the declarative identity of a mechanism
  (registry name + JSON-able parameters).  Specs are what cache keys,
  CLI flags and config files speak; the registry turns them back into
  live mechanisms (:func:`repro.mechanisms.registry.from_spec`).
* :class:`Mechanism` -- the abstract bundle: ``perturb`` /
  ``build_estimator`` plus the privacy description (``amplification``,
  optionally the dense ``matrix``) the accountant consumes.
* :class:`ColumnarMechanism` -- the composable refinement: mechanisms
  whose output is again an in-domain categorical record and whose
  sampler consumes a *fixed-width block of uniforms per record*
  (:attr:`~ColumnarMechanism.uniform_width`).  That invariant is what
  lets :class:`~repro.mechanisms.composite.CompositeMechanism` slice
  one ``(m, K)`` uniform block across per-attribute parts and stay
  chunk-splittable -- so composite outputs follow the pipeline's
  determinism contract exactly like the single-matrix engines (see
  :mod:`repro.core.engine`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.reconstruction import reconstruct_counts
from repro.data.dataset import CategoricalDataset
from repro.data.schema import Schema
from repro.exceptions import DataError, ExperimentError
from repro.stats.rng import as_generator

#: Largest joint-domain size the streaming path accumulates as a dense
#: joint-count vector.  Beyond this the pipeline folds packed
#: transaction bitmaps instead -- O(N * M_b / 8) memory, independent of
#: the joint-domain size -- which is what lets 50-attribute composites
#: stream through the same multi-worker machinery.
MAX_JOINT_ACCUMULATION = 1 << 22


def canonical_params(params: dict) -> dict:
    """Normalise a parameter dict into its canonical JSON-able form.

    Floats stay floats, ints stay ints, tuples become lists, nested
    dicts are key-sorted by the store's canonicaliser later.  The one
    normalisation applied here is recursion plus a type check (the
    shared :func:`repro.canonical.canonicalise` rules -- the same ones
    store cache keys use), so a spec that cannot be cache-keyed fails
    at construction time.
    """
    from repro.canonical import canonicalise

    return canonicalise(dict(params))


@dataclass(frozen=True)
class MechanismSpec:
    """Declarative identity of a mechanism: registry name + parameters.

    Examples
    --------
    >>> spec = MechanismSpec("det-gd", {"gamma": 19.0})
    >>> spec.canonical()
    {'name': 'det-gd', 'params': {'gamma': 19.0}}
    >>> MechanismSpec.from_dict(spec.canonical()) == spec
    True
    """

    name: str
    params: tuple

    def __init__(self, name: str, params: dict | None = None):
        object.__setattr__(self, "name", str(name))
        canonical = canonical_params(params or {})
        # Store as a sorted item tuple so specs are hashable and two
        # equal-parameter specs compare (and hash) equal.
        object.__setattr__(
            self,
            "params",
            tuple(sorted((key, _freeze(value)) for key, value in canonical.items())),
        )

    def as_params(self) -> dict:
        """The parameters as a plain (mutable) dict."""
        return {key: _thaw(value) for key, value in self.params}

    def canonical(self) -> dict:
        """JSON-able form: ``{"name": ..., "params": {...}}``.

        This is exactly what enters orchestrator cache keys, so any
        parameter change -- e.g. one per-attribute gamma of a composite
        -- produces a different key.
        """
        return {"name": self.name, "params": self.as_params()}

    @classmethod
    def from_dict(cls, data: dict) -> "MechanismSpec":
        """Inverse of :meth:`canonical`.

        Raises
        ------
        ExperimentError
            When ``data`` is not a dict with a ``name``, or its
            ``params`` is neither absent, ``None`` (both mean ``{}``)
            nor a dict.
        """
        if not isinstance(data, dict) or "name" not in data:
            raise ExperimentError(f"not a mechanism spec: {data!r}")
        params = data.get("params")
        if params is not None and not isinstance(params, dict):
            raise ExperimentError(
                f"mechanism {data['name']!r} params must be a JSON object, "
                f"got {type(params).__name__} {params!r}"
            )
        return cls(data["name"], params)

    def __str__(self) -> str:
        rendered = ", ".join(f"{k}={_thaw(v)!r}" for k, v in self.params)
        return f"{self.name}({rendered})"


def _freeze(value):
    """Recursively turn lists/dicts into tuples for hashability."""
    if isinstance(value, dict):
        return _Frozen(tuple(sorted((k, _freeze(v)) for k, v in value.items())))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value):
    """Inverse of :func:`_freeze` (back to JSON-able lists/dicts)."""
    if isinstance(value, _Frozen):
        return {k: _thaw(v) for k, v in value.items}
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


@dataclass(frozen=True)
class _Frozen:
    """Hashable stand-in for a nested params dict."""

    items: tuple


class Mechanism(abc.ABC):
    """Abstract perturbation mechanism: sampler + matrix + estimator.

    Concrete mechanisms set :attr:`key` (their registry name) and
    :attr:`display` (the paper-style display name used in tables), and
    implement the three bundle members.  ``supports_pipeline`` declares
    whether the mechanism's sampler satisfies the chunk protocol of
    :class:`repro.pipeline.PerturbationPipeline` (fixed-width uniform
    blocks per record, in record order) -- the experiment runner routes
    ``workers`` / ``chunk_size`` only to mechanisms that do.
    """

    #: Registry key (set per subclass, e.g. ``"det-gd"``).
    key: str = ""
    #: Display name used in comparison tables (e.g. ``"DET-GD"``).
    display: str = ""
    #: Whether the sampler is chunk-splittable / multi-worker capable.
    supports_pipeline: bool = False

    schema: Schema

    # ------------------------------------------------------------------
    # declarative identity
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def spec(self) -> MechanismSpec:
        """The declarative spec this mechanism was built from.

        Round-trip contract: ``from_spec(m.spec(), m.schema)`` builds a
        mechanism whose spec equals ``m.spec()``.
        """

    # ------------------------------------------------------------------
    # privacy description (consumed by the accountant)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def amplification(self) -> float:
        """Worst-case within-row entry ratio of the perturbation matrix.

        The quantity bounded by ``gamma`` in paper Eq. (2); ``inf``
        when the mechanism offers no strict amplification guarantee.
        """

    def matrix(self) -> np.ndarray | None:
        """Dense joint-domain perturbation matrix, when materialisable.

        Returns ``None`` for mechanisms whose transition operates on a
        different representation (MASK / C&P perturb booleanized
        records); the accountant then reports the amplification bound
        without an empirical posterior audit.  Composite mechanisms
        return an implicit :class:`~repro.stats.KroneckerOperator`
        instead of a dense array -- call ``.to_dense()`` explicitly for
        small domains.
        """
        return None

    def matrix_operator(self):
        """Joint-domain matrix as a (possibly implicit) linear operator.

        The structured view the accountant prefers: an object exposing
        ``matvec`` / ``solve`` / ``condition_number`` / ``to_dense``
        (e.g. a :class:`~repro.core.GammaDiagonalMatrix` or a
        :class:`~repro.stats.KroneckerOperator`), a dense array, or
        ``None``.  The default falls back to :meth:`matrix`; mechanisms
        with closed-form structure override this so condition numbers
        and solves never require densification.
        """
        return self.matrix()

    # ------------------------------------------------------------------
    # sampler + estimator
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def perturb(self, dataset: CategoricalDataset, seed=None):
        """Client-side perturbation of a whole dataset.

        Returns the mechanism's natural perturbed representation: a
        :class:`~repro.data.dataset.CategoricalDataset` for in-domain
        mechanisms, an ``(N, M_b)`` bit matrix for the booleanizing
        baselines.
        """

    @abc.abstractmethod
    def build_estimator(self, dataset, seed=None, workers: int = 1, chunk_size=None):
        """Perturb ``dataset`` and wrap it in this mechanism's estimator.

        The returned object satisfies the Apriori ``SupportSource``
        protocol (``supports(itemsets) -> array``).  Mechanisms with
        ``supports_pipeline`` route non-default ``workers`` /
        ``chunk_size`` through :class:`repro.pipeline.PerturbationPipeline`;
        others raise :class:`~repro.exceptions.ExperimentError` for them.
        """

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _check_schema(self, dataset: CategoricalDataset) -> None:
        if dataset.schema != self.schema:
            raise DataError("dataset schema does not match the mechanism schema")

    def _reject_pipeline(self, workers, chunk_size) -> None:
        if workers != 1 or chunk_size is not None:
            raise ExperimentError(
                f"mechanism {self.display or self.key!r} has no chunked/"
                "multi-worker execution path (supports_pipeline=False)"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec()})"


class ColumnarMechanism(Mechanism):
    """A mechanism whose output is an in-domain categorical record.

    Columnar mechanisms add the composability contract:

    * :attr:`uniform_width` -- the fixed number of uniforms consumed
      per record;
    * :meth:`perturb_from_uniforms` -- the deterministic sampler given
      a pre-drawn ``(m, uniform_width)`` block;
    * :meth:`marginal_matrix` -- the induced transition matrix over any
      attribute subset's sub-domain (what support reconstruction
      inverts, paper Eq. 28 generalised).

    They also implement the chunk protocol of
    :class:`repro.pipeline.PerturbationPipeline` (``perturb_chunk`` /
    ``perturb_joint``), derived from the uniform-block sampler, so every
    columnar mechanism is streamable and multi-worker capable for free.
    """

    supports_pipeline = True

    #: Number of uniforms the sampler consumes per record.
    uniform_width: int = 1

    @abc.abstractmethod
    def perturb_from_uniforms(
        self, records: np.ndarray, draws: np.ndarray
    ) -> np.ndarray:
        """Perturb ``(m, M)`` records from a ``(m, uniform_width)`` block.

        Must be deterministic in ``draws`` and preserve the input cell
        dtype (compact in, compact out).
        """

    @abc.abstractmethod
    def marginal_matrix(self, positions) -> np.ndarray:
        """Induced transition matrix over an attribute subset.

        ``positions`` are strictly increasing attribute positions of
        :attr:`schema`; the matrix is indexed like
        :meth:`repro.data.schema.Schema.encode_subset` over those
        positions (row = perturbed sub-record, column = original).
        Dense for the simple mechanisms; composites return an implicit
        :class:`~repro.stats.KroneckerOperator` (``.to_dense()``
        materialises it for small sub-domains).
        """

    def marginal_operator(self, positions):
        """Induced marginal as a (possibly implicit) linear operator.

        What support reconstruction solves against: an object exposing
        ``solve`` (closed-form ``a*I + b*J`` marginals, Kronecker
        operators) or a dense array to pass to ``numpy.linalg.solve``.
        The default falls back to :meth:`marginal_matrix`; mechanisms
        with structured marginals override this so per-subset solves
        stay O(sub-domain) instead of O(sub-domain^3) -- and so wide
        composites never densify at all.
        """
        return self.marginal_matrix(positions)

    # ------------------------------------------------------------------
    # chunk protocol (derived)
    # ------------------------------------------------------------------
    def perturb_chunk(self, records: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Perturb a raw ``(m, M)`` record array, advancing ``rng``."""
        if records.shape[0] == 0:
            return records.copy()
        draws = rng.random((records.shape[0], self.uniform_width))
        return self.perturb_from_uniforms(records, draws)

    def perturb_joint(self, joint: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Perturb raw joint indices, advancing ``rng``.

        Decode/encode round trip over :meth:`perturb_chunk`, so the
        uniform stream is consumed identically on the records and the
        joint-index pipeline paths (which is what keeps
        ``accumulate`` bit-identical to ``perturb``-then-count).
        """
        records = self.schema.decode(joint)
        return self.schema.encode(self.perturb_chunk(records, rng))

    def perturb(self, dataset: CategoricalDataset, seed=None) -> CategoricalDataset:
        """One-shot perturbation; same draw stream as the chunked path."""
        self._check_schema(dataset)
        rng = as_generator(seed)
        return CategoricalDataset._trusted(
            self.schema, self.perturb_chunk(dataset.records, rng)
        )

    def _validate_positions(self, positions) -> tuple[int, ...]:
        positions = tuple(int(p) for p in positions)
        if not positions:
            raise ExperimentError("attribute subset must be non-empty")
        if any(b <= a for a, b in zip(positions, positions[1:])):
            raise ExperimentError(
                f"marginal_matrix positions must be strictly increasing, "
                f"got {positions}"
            )
        if positions[0] < 0 or positions[-1] >= self.schema.n_attributes:
            raise ExperimentError(
                f"positions {positions} out of range for "
                f"{self.schema.n_attributes} attributes"
            )
        return positions

    def build_estimator(self, dataset, seed=None, workers: int = 1, chunk_size=None):
        """Generic estimator: invert the induced marginal per itemset.

        The direct path perturbs in one shot and counts on the perturbed
        dataset; pipeline options stream the perturbation through
        :class:`repro.pipeline.PerturbationPipeline` and answer the same
        subset-count queries from the accumulated joint counts -- the
        two sources agree exactly, so estimates only depend on the
        perturbed records, not on the execution layout.  Wide schemas
        (joint domain beyond :data:`MAX_JOINT_ACCUMULATION`) accumulate
        packed transaction bitmaps instead of the joint count vector:
        subset counts come from AND/popcount over the itemset's
        attribute rows, which answers the same queries exactly without
        ever touching joint-domain indices.
        """
        if workers == 1 and chunk_size is None:
            perturbed = self.perturb(dataset, seed=seed)
            return MarginalInversionEstimator(
                self, perturbed.subset_counts, perturbed.n_records
            )
        from repro.pipeline import DEFAULT_CHUNK_SIZE, PerturbationPipeline

        pipeline = PerturbationPipeline(
            self, chunk_size=chunk_size or DEFAULT_CHUNK_SIZE, workers=workers
        )
        if self.schema.joint_size > MAX_JOINT_ACCUMULATION:
            accumulator = pipeline.accumulate_bitmaps(dataset, seed=seed)
        else:
            accumulator = pipeline.accumulate(dataset, seed=seed)
        return MarginalInversionEstimator(
            self, accumulator.subset_counts, accumulator.n_records
        )


class MarginalInversionEstimator:
    """Support estimates by inverting a mechanism's induced marginals.

    The generic estimator every :class:`ColumnarMechanism` gets for
    free: for each candidate itemset over attributes ``Cs``, count the
    perturbed sub-domain distribution, solve the mechanism's
    ``marginal_operator(Cs)`` system, and read off the itemset's cell.
    For the pure gamma-diagonal mechanism this computes the same
    estimate as the Eq.-28 closed form (the closed form *is* this
    inverse); for composites the operator is the Kronecker product of
    the parts' marginals, solved factor by factor -- the sub-domain is
    never densified, so 50-attribute schemas estimate in memory linear
    in the number of parts.  Every per-subset system is solved by
    :func:`~repro.core.reconstruction.reconstruct_counts`.

    Parameters
    ----------
    mechanism:
        The columnar mechanism whose marginals to invert.
    subset_counts:
        Callable ``positions -> count vector`` over the perturbed data
        -- a dataset's ``subset_counts`` or a
        :class:`repro.pipeline.JointCountAccumulator`'s or
        :class:`repro.pipeline.BitmapAccumulator`'s.
    n_records:
        Total perturbed record count.
    """

    def __init__(self, mechanism: ColumnarMechanism, subset_counts, n_records: int):
        self.mechanism = mechanism
        self.schema = mechanism.schema
        self._subset_counts = subset_counts
        self.n_records = int(n_records)
        self._solved: dict[tuple[int, ...], np.ndarray] = {}

    def supports(self, itemsets) -> np.ndarray:
        """Reconstructed fractional supports; may be negative for rare sets."""
        from repro.exceptions import MiningError

        itemsets = list(itemsets)
        if self.n_records == 0:
            raise MiningError("cannot estimate supports of an empty database")
        cards = self.schema.cardinalities
        estimates = np.empty(len(itemsets))
        for i, itemset in enumerate(itemsets):
            attrs = itemset.attributes
            solved = self._solved.get(attrs)
            if solved is None:
                solved = reconstruct_counts(
                    self.mechanism.marginal_operator(attrs),
                    self._subset_counts(attrs),
                )
                self._solved[attrs] = solved
            dims = [cards[a] for a in attrs]
            cell = int(np.ravel_multi_index(itemset.values, dims=dims))
            estimates[i] = solved[cell] / self.n_records
        return estimates
