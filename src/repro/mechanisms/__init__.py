"""First-class mechanisms: protocol, registry, composition, accounting.

This package is the executable form of FRAPP's framework claim: a
*mechanism* is anything bundling a chunk-splittable sampler, a
perturbation-matrix description and a support estimator behind one
declarative spec.  Everything that names mechanisms -- the facade,
the experiment runner, the orchestrator's cache keys, the CLI, the
service -- resolves them through the registry here, by one rule
(:func:`~repro.mechanisms.registry.resolve`).

* :mod:`repro.mechanisms.base` -- the :class:`Mechanism` /
  :class:`ColumnarMechanism` protocol and :class:`MechanismSpec`;
* :mod:`repro.mechanisms.registry` -- ``register`` / ``get`` /
  ``available`` / ``resolve`` plus display-name and plot-order
  metadata;
* :mod:`repro.mechanisms.builtin` -- DET-GD, RAN-GD, MASK, C&P,
  Warner and additive noise on the protocol;
* :mod:`repro.mechanisms.composite` -- per-attribute composition with
  Kronecker-product analytics;
* :mod:`repro.mechanisms.accountant` -- the central privacy
  accountant deriving (rho1, rho2) bounds for any mechanism.
"""

from repro.mechanisms.base import (
    ColumnarMechanism,
    MarginalInversionEstimator,
    Mechanism,
    MechanismSpec,
)
from repro.mechanisms.registry import (
    MechanismEntry,
    available,
    create,
    display_name,
    display_order,
    from_spec,
    get,
    paper_mechanisms,
    register,
    resolve,
    unregister,
)
from repro.mechanisms.builtin import (
    AdditiveNoiseMechanism,
    CutAndPasteMechanism,
    GammaDiagonalMechanism,
    MaskMechanism,
    RandomizedGammaDiagonalMechanism,
    WarnerMechanism,
)
from repro.mechanisms.composite import CompositeMechanism
from repro.mechanisms.accountant import (
    MAX_AUDIT_DOMAIN,
    PrivacyAccountant,
    PrivacyStatement,
)

__all__ = [
    "AdditiveNoiseMechanism",
    "ColumnarMechanism",
    "CompositeMechanism",
    "CutAndPasteMechanism",
    "GammaDiagonalMechanism",
    "MAX_AUDIT_DOMAIN",
    "MarginalInversionEstimator",
    "MaskMechanism",
    "Mechanism",
    "MechanismEntry",
    "MechanismSpec",
    "PrivacyAccountant",
    "PrivacyStatement",
    "RandomizedGammaDiagonalMechanism",
    "WarnerMechanism",
    "available",
    "create",
    "display_name",
    "display_order",
    "from_spec",
    "get",
    "paper_mechanisms",
    "register",
    "resolve",
    "unregister",
]
