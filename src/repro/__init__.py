"""FRAPP: A Framework for High-Accuracy Privacy-Preserving Mining.

A complete, from-scratch reproduction of Agrawal & Haritsa (ICDE 2005):
the matrix-theoretic FRAPP perturbation framework with its optimal
gamma-diagonal matrix (DET-GD), the randomized-matrix variant (RAN-GD),
the MASK and Cut-and-Paste baselines, an Apriori miner with per-pass
support reconstruction, the paper's CENSUS/HEALTH evaluation datasets,
and the full experiment harness for its tables and figures.

Quickstart
----------
>>> import repro
>>> data = repro.generate_census(5000, seed=1)
>>> session = repro.Session(data.schema, mechanism="det-gd", seed=2)
>>> released = session.perturb(data)                     # doctest: +SKIP
>>> result = session.mine(data, min_support=0.02)        # doctest: +SKIP

The stable facade lives in :mod:`repro.api` (``Session``, ``perturb``,
``reconstruct``, ``mine``, ``connect``) and is re-exported here; the
rest of the package remains importable for lower-level control.

See README.md for the full tour, DESIGN.md for the architecture, and
EXPERIMENTS.md for paper-versus-measured results.
"""

from repro.api import Session, connect, mine, perturb, reconstruct
from repro.baselines import (
    AdditiveNoisePerturbation,
    CutAndPastePerturbation,
    MaskPerturbation,
    WarnerRandomizedResponse,
)
from repro.core import (
    GammaDiagonalMatrix,
    GammaDiagonalPerturbation,
    PrivacyRequirement,
    RandomizedGammaDiagonal,
    RandomizedGammaDiagonalPerturbation,
    design_mechanism,
    gamma_from_rho,
    reconstruct_counts,
)
from repro.data import (
    Attribute,
    CategoricalDataset,
    FrdDataset,
    Schema,
    census_schema,
    generate_census,
    generate_health,
    health_schema,
    open_frd,
    save_frd,
)
from repro.exceptions import FrappError, SolverError
from repro.metrics import evaluate_mining
from repro.service.client import RetryPolicy
from repro.pipeline import (
    AccumulatedSupportEstimator,
    BitmapAccumulator,
    BitmapStreamSupportEstimator,
    JointCountAccumulator,
    PerturbationPipeline,
    mine_stream,
    reconstruct_stream,
)
from repro.store import ResultStore, cache_key, code_fingerprint
from repro.mechanisms import (
    CompositeMechanism,
    Mechanism,
    MechanismSpec,
    PrivacyAccountant,
    PrivacyStatement,
)
from repro.mechanisms import register as register_mechanism
from repro.mining import (
    AprioriResult,
    BitmapSupportCounter,
    Itemset,
    NaiveBayesClassifier,
    TransactionBitmaps,
    apriori,
    association_rules,
    mine_exact,
    mine_per_level,
)

__version__ = "1.0.0"

__all__ = [
    "AccumulatedSupportEstimator",
    "AdditiveNoisePerturbation",
    "AprioriResult",
    "Attribute",
    "BitmapAccumulator",
    "BitmapStreamSupportEstimator",
    "BitmapSupportCounter",
    "CategoricalDataset",
    "CompositeMechanism",
    "CutAndPastePerturbation",
    "FrappError",
    "FrdDataset",
    "GammaDiagonalMatrix",
    "GammaDiagonalPerturbation",
    "Itemset",
    "JointCountAccumulator",
    "MaskPerturbation",
    "Mechanism",
    "MechanismSpec",
    "NaiveBayesClassifier",
    "PerturbationPipeline",
    "PrivacyAccountant",
    "PrivacyRequirement",
    "PrivacyStatement",
    "RandomizedGammaDiagonal",
    "RandomizedGammaDiagonalPerturbation",
    "ResultStore",
    "RetryPolicy",
    "Schema",
    "Session",
    "SolverError",
    "TransactionBitmaps",
    "WarnerRandomizedResponse",
    "__version__",
    "apriori",
    "association_rules",
    "cache_key",
    "census_schema",
    "code_fingerprint",
    "connect",
    "design_mechanism",
    "evaluate_mining",
    "gamma_from_rho",
    "generate_census",
    "generate_health",
    "health_schema",
    "mine",
    "mine_exact",
    "mine_per_level",
    "mine_stream",
    "open_frd",
    "perturb",
    "reconstruct",
    "reconstruct_counts",
    "reconstruct_stream",
    "register_mechanism",
    "save_frd",
]
