"""Per-attribute mechanism composition (paper Section 5, generalised).

The paper's decomposed implementation realises one joint matrix as a
product of per-attribute steps.  :class:`CompositeMechanism` makes the
product itself the mechanism: the schema's attributes are partitioned
into contiguous groups, each group perturbed *independently* by its own
columnar mechanism -- Warner on a sensitive binary column, DET-GD with
a per-column gamma elsewhere, additive noise on an ordinal, any mix of
registered columnar mechanisms.

Analytics follow the product structure exactly:

* the effective joint matrix is the **Kronecker product** of the
  parts' matrices (independence across groups);
* the induced marginal over any attribute subset is the Kronecker
  product of each part's marginal over its share of the subset -- which
  is what the generic
  :class:`~repro.mechanisms.base.MarginalInversionEstimator` inverts;
* the amplification bound **multiplies across parts** (rows of a
  Kronecker product are tensor pairs of rows, so within-row ratios
  multiply) -- the product-matrix bound the privacy accountant reports.

Sampling preserves the fixed-width-uniforms-per-record invariant: the
composite draws one ``(m, sum_i width_i)`` block per chunk and hands
each part its column slice, so chunked output follows the pipeline's
determinism contract exactly like the single-matrix engines (see
:mod:`repro.core.engine` and :mod:`repro.pipeline.executor`).
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import Schema
from repro.exceptions import ExperimentError
from repro.mechanisms.base import ColumnarMechanism, MechanismSpec
from repro.mechanisms.registry import register
from repro.stats.kronecker import KroneckerOperator


class CompositeMechanism(ColumnarMechanism):
    """Independent per-attribute-group perturbation.

    Parameters
    ----------
    schema:
        The full record schema.
    parts:
        Columnar mechanisms whose schemas partition ``schema``'s
        attributes *in order* (part 0 covers the first attributes,
        part 1 the next, ...).  Build them over sub-schemas, e.g.
        ``Schema(schema.attributes[0:1])``, or use :meth:`build` /
        the registry factory to do the splitting from specs.
    """

    key = "composite"
    display = "COMPOSITE"

    def __init__(self, schema: Schema, parts):
        parts = list(parts)
        if not parts:
            raise ExperimentError("a composite needs at least one part")
        covered: list = []
        for part in parts:
            if not isinstance(part, ColumnarMechanism):
                raise ExperimentError(
                    f"composite parts must be columnar mechanisms (in-domain "
                    f"categorical output); {type(part).__name__} is not"
                )
            covered.extend(part.schema.attributes)
        if tuple(covered) != schema.attributes:
            raise ExperimentError(
                "part schemas must partition the composite schema's attributes "
                "in order"
            )
        self.schema = schema
        self.parts = tuple(parts)
        starts, stop = [], 0
        for part in self.parts:
            starts.append(stop)
            stop += part.schema.n_attributes
        self._starts = tuple(starts)
        self.display = "+".join(part.display for part in self.parts)

    @classmethod
    def build(cls, schema: Schema, part_specs) -> "CompositeMechanism":
        """Build from ``(name, n_attributes, params)`` part descriptions.

        ``part_specs`` is an iterable of dicts with keys ``name``,
        ``n_attributes`` and ``params`` (the registry-factory keyword
        arguments for that part) -- the JSON-able form the composite's
        own :meth:`spec` round-trips through.
        """
        from repro.mechanisms import registry

        parts, position = [], 0
        for part_spec in part_specs:
            width = int(part_spec["n_attributes"])
            if width < 1 or position + width > schema.n_attributes:
                raise ExperimentError(
                    f"part widths must partition the {schema.n_attributes} "
                    "schema attributes"
                )
            sub_schema = Schema(schema.attributes[position : position + width])
            parts.append(
                registry.create(
                    part_spec["name"], sub_schema, **(part_spec.get("params") or {})
                )
            )
            position += width
        if position != schema.n_attributes:
            raise ExperimentError(
                f"parts cover {position} of {schema.n_attributes} attributes"
            )
        return cls(schema, parts)

    # ------------------------------------------------------------------
    # declarative identity
    # ------------------------------------------------------------------
    def spec(self) -> MechanismSpec:
        """``composite(parts=[...])`` with each part's canonical spec.

        The part specs (including every per-attribute parameter) enter
        the canonical form, so orchestrator cache keys built from a
        composite spec change whenever any per-attribute knob does.
        """
        return MechanismSpec(
            self.key,
            {
                "parts": [
                    {
                        "name": part.spec().name,
                        "n_attributes": part.schema.n_attributes,
                        "params": part.spec().as_params(),
                    }
                    for part in self.parts
                ]
            },
        )

    # ------------------------------------------------------------------
    # privacy description
    # ------------------------------------------------------------------
    def amplification(self) -> float:
        """Product of the parts' bounds (exact for Kronecker products)."""
        total = 1.0
        for part in self.parts:
            total *= part.amplification()
        return float(total)

    def amplification_factors(self) -> tuple[float, ...]:
        """Per-part amplification bounds (the factors of the product)."""
        return tuple(part.amplification() for part in self.parts)

    def matrix(self) -> KroneckerOperator:
        """Implicit Kronecker product of the parts' joint matrices.

        Returned as a :class:`~repro.stats.KroneckerOperator` -- memory
        is the *sum* of the part-matrix sizes, so wide composites can
        describe joint domains far beyond anything materialisable.
        ``.to_dense()`` recovers the old dense array (bit-identical to
        the former ``np.kron`` left-fold) for small domains.
        """
        factors = []
        for part in self.parts:
            operator = part.matrix_operator()
            if operator is None:
                raise ExperimentError(
                    f"part {part.display!r} has no joint-domain matrix form"
                )
            factors.append(operator)
        return KroneckerOperator(factors)

    def matrix_operator(self) -> KroneckerOperator:
        """Same implicit operator as :meth:`matrix` (already matrix-free)."""
        return self.matrix()

    def marginal_matrix(self, positions) -> KroneckerOperator:
        """Kronecker product of each part's marginal over its share.

        ``positions`` must be strictly increasing (enforced by
        ``_validate_positions``), so within-part indices and the
        part-order factor fold agree: the result is indexed exactly
        like :meth:`repro.data.schema.Schema.encode_subset` over
        ``positions``.  Unsorted cross-part position lists -- whose
        requested axis order would disagree with the factor order --
        are rejected rather than silently reordered, and a subset that
        intersects no part (impossible while the parts partition the
        schema, but guarding subclasses) raises instead of returning
        ``None``.
        """
        positions = self._validate_positions(positions)
        factors, covered = [], 0
        for part, start in zip(self.parts, self._starts):
            stop = start + part.schema.n_attributes
            local = [p - start for p in positions if start <= p < stop]
            if not local:
                continue
            factors.append(part.marginal_operator(local))
            covered += len(local)
        if not factors:
            raise ExperimentError(
                f"positions {positions} intersect no part of this composite"
            )
        if covered != len(positions):
            raise ExperimentError(
                f"positions {positions} are not fully covered by the "
                "composite's parts"
            )
        return KroneckerOperator(factors)

    def marginal_operator(self, positions) -> KroneckerOperator:
        """Same implicit operator as :meth:`marginal_matrix`."""
        return self.marginal_matrix(positions)

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    @property
    def uniform_width(self) -> int:
        """Sum of the parts' fixed per-record widths."""
        return sum(part.uniform_width for part in self.parts)

    def perturb_from_uniforms(self, records: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Slice the shared uniform block across the parts, column-wise."""
        out = np.empty_like(records)
        offset = 0
        for part, start in zip(self.parts, self._starts):
            stop = start + part.schema.n_attributes
            width = part.uniform_width
            out[:, start:stop] = part.perturb_from_uniforms(
                records[:, start:stop], draws[:, offset : offset + width]
            )
            offset += width
        return out


def _composite_factory(schema: Schema, parts) -> CompositeMechanism:
    """Registry factory: build a composite from JSON-able part specs."""
    return CompositeMechanism.build(schema, parts)


register("composite", _composite_factory, display="COMPOSITE", pipeline=True)
