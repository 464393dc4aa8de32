"""Correlated synthetic data generation.

The paper evaluates on two real datasets (UCI CENSUS, NHIS HEALTH) that
are not redistributable here, so we generate stand-ins from a *prototype
mixture model*: a record is either drawn from independent per-attribute
background marginals, or from one of a small set of fully-specified
"prototype" records whose attributes are individually re-randomized with
a small noise probability.

This family is a good structural match for the originals because it
produces (a) skewed per-attribute marginals, (b) strong cross-attribute
correlations (each prototype is a dense cell in the joint domain), and
therefore (c) frequent itemsets of *all* lengths up to ``M`` -- the
property paper Table 3 documents and Figures 1-2 stress.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.backing import record_dtype
from repro.data.dataset import CategoricalDataset
from repro.data.schema import Schema
from repro.exceptions import DataError
from repro.stats.rng import as_generator


@dataclass(frozen=True)
class Prototype:
    """A fully-specified record with a mixture weight.

    Parameters
    ----------
    values:
        One category index per schema attribute.
    weight:
        Non-negative mixture weight (weights are taken relative to the
        model's total prototype mass).
    """

    values: tuple[int, ...]
    weight: float

    def __init__(self, values, weight: float):
        object.__setattr__(self, "values", tuple(int(v) for v in values))
        object.__setattr__(self, "weight", float(weight))
        if self.weight < 0:
            raise DataError(f"prototype weight must be >= 0, got {self.weight}")


class MixtureModel:
    """Prototype-mixture generator over a categorical schema.

    Parameters
    ----------
    schema:
        Target schema.
    marginals:
        One probability vector per attribute (each summing to 1); the
        background distribution and the noise distribution.
    prototypes:
        Sequence of :class:`Prototype`.  The sum of their weights is the
        probability that a record is prototype-generated; the remainder
        is background mass.  Total prototype weight must be <= 1.
    noise:
        Per-attribute probability that a prototype-drawn record has that
        attribute re-drawn from the background marginal instead of the
        prototype value.  ``0`` gives exact prototype copies.
    """

    def __init__(self, schema: Schema, marginals, prototypes=(), noise: float = 0.1):
        self.schema = schema
        self.marginals = [np.asarray(m, dtype=float) for m in marginals]
        if len(self.marginals) != schema.n_attributes:
            raise DataError(
                f"need {schema.n_attributes} marginals, got {len(self.marginals)}"
            )
        for j, (marg, card) in enumerate(zip(self.marginals, schema.cardinalities)):
            if marg.shape != (card,):
                raise DataError(
                    f"marginal {j} has shape {marg.shape}, expected ({card},)"
                )
            if np.any(marg < 0) or not np.isclose(marg.sum(), 1.0, atol=1e-8):
                raise DataError(f"marginal {j} is not a probability vector")
        self.prototypes = tuple(prototypes)
        for proto in self.prototypes:
            if len(proto.values) != schema.n_attributes:
                raise DataError(
                    f"prototype {proto.values} has wrong arity for schema"
                )
            for j, v in enumerate(proto.values):
                if not 0 <= v < schema.cardinalities[j]:
                    raise DataError(
                        f"prototype value {v} out of domain for attribute "
                        f"{schema.names[j]!r}"
                    )
        if not 0.0 <= noise <= 1.0:
            raise DataError(f"noise must be in [0, 1], got {noise}")
        self.noise = float(noise)
        total = sum(p.weight for p in self.prototypes)
        if total > 1.0 + 1e-9:
            raise DataError(f"prototype weights sum to {total} > 1")
        self._prototype_mass = min(total, 1.0)

    @property
    def background_mass(self) -> float:
        """Probability that a record is background (marginals-only)."""
        return 1.0 - self._prototype_mass

    def sample(self, n_records: int, seed=None) -> CategoricalDataset:
        """Draw ``n_records`` i.i.d. records from the mixture.

        Records are stored at the schema's compact cell dtype
        (:func:`repro.data.backing.record_dtype`).
        """
        if n_records < 0:
            raise DataError(f"n_records must be >= 0, got {n_records}")
        rng = as_generator(seed)
        m = self.schema.n_attributes

        # Background draw for every record; prototype rows overwrite below.
        records = np.empty((n_records, m), dtype=record_dtype(self.schema))
        for j, marg in enumerate(self.marginals):
            records[:, j] = rng.choice(marg.size, size=n_records, p=marg)

        if self.prototypes and self._prototype_mass > 0 and n_records:
            weights = np.array([p.weight for p in self.prototypes], dtype=float)
            # Component -1 encodes "background".
            probs = np.concatenate([[self.background_mass], weights])
            probs = probs / probs.sum()
            component = rng.choice(len(self.prototypes) + 1, size=n_records, p=probs) - 1
            proto_values = np.array([p.values for p in self.prototypes], dtype=np.int64)
            proto_rows = component >= 0
            if np.any(proto_rows):
                keep = rng.random((int(proto_rows.sum()), m)) >= self.noise
                chosen = proto_values[component[proto_rows]]
                background = records[proto_rows]
                records[proto_rows] = np.where(keep, chosen, background)

        # Every cell was drawn inside its attribute's domain, so the
        # array is adopted without a validation pass or defensive copy.
        return CategoricalDataset._trusted(self.schema, records)

    def expected_marginal(self, attribute: int) -> np.ndarray:
        """Exact single-attribute marginal implied by the mixture.

        Useful for calibrating generators and as a test oracle:
        ``P(attr=c) = bg_mass * marg[c] + sum_p w_p * ((1-noise)*[proto_p=c]
        + noise * marg[c])``.
        """
        marg = self.marginals[attribute]
        result = (self.background_mass + self._prototype_mass * self.noise) * marg
        for proto in self.prototypes:
            result = result.copy()
            result[proto.values[attribute]] += proto.weight * (1.0 - self.noise)
        return result
