"""The FRAPP core: perturbation matrices, privacy, reconstruction.

This package implements the paper's primary contribution:

* :mod:`repro.core.privacy` -- the ``(rho1, rho2)`` amplification
  framework (Eq. 2) and worst-case posterior analysis;
* :mod:`repro.core.matrix` -- perturbation-matrix interfaces;
* :mod:`repro.core.gamma_diagonal` -- the optimal gamma-diagonal
  matrix of Section 3 (DET-GD) with its closed forms and the Eq.-18
  optimality bound;
* :mod:`repro.core.randomized` -- the randomized matrix of Section 4
  (RAN-GD) and its posterior-range privacy analysis;
* :mod:`repro.core.engine` -- client-side perturbation samplers,
  including the Section-5 efficient algorithm;
* :mod:`repro.core.reconstruction` -- distribution reconstruction
  (Eq. 8), one exact solve;
* :mod:`repro.core.marginal` -- the Eq.-28 marginal matrices that plug
  reconstruction into bottom-up mining;
* :mod:`repro.core.estimation` -- Theorem-1 error bounds and
  Poisson-Binomial count variances.
"""

from repro.core.breach import (
    BreachAudit,
    audit_all_singletons,
    audit_property,
    empirical_posteriors,
    posterior_given_output,
)
from repro.core.designer import MechanismReport, design_mechanism
from repro.core.engine import (
    GammaDiagonalPerturbation,
    MatrixPerturbation,
    RandomizedGammaDiagonalPerturbation,
)
from repro.core.estimation import (
    expected_perturbed_counts,
    perturbed_count_variance,
    relative_reconstruction_error,
    theorem1_bound,
)
from repro.core.gamma_diagonal import (
    GammaDiagonalMatrix,
    maximum_diagonal_entry,
    minimum_condition_number,
)
from repro.core.marginal import (
    estimate_subset_supports,
    marginal_matrix,
    perturbed_support_of,
)
from repro.core.matrix import DensePerturbationMatrix, PerturbationMatrix
from repro.core.privacy import (
    PrivacyRequirement,
    amplification,
    gamma_from_rho,
    rho2_from_gamma,
    satisfies_amplification,
    worst_case_posterior,
)
from repro.core.randomized import RandomizedGammaDiagonal
from repro.core.reconstruction import clip_counts, reconstruct_counts

__all__ = [
    "BreachAudit",
    "DensePerturbationMatrix",
    "MechanismReport",
    "GammaDiagonalMatrix",
    "GammaDiagonalPerturbation",
    "MatrixPerturbation",
    "PerturbationMatrix",
    "PrivacyRequirement",
    "RandomizedGammaDiagonal",
    "RandomizedGammaDiagonalPerturbation",
    "amplification",
    "audit_all_singletons",
    "audit_property",
    "clip_counts",
    "design_mechanism",
    "empirical_posteriors",
    "estimate_subset_supports",
    "expected_perturbed_counts",
    "gamma_from_rho",
    "marginal_matrix",
    "maximum_diagonal_entry",
    "minimum_condition_number",
    "perturbed_count_variance",
    "posterior_given_output",
    "perturbed_support_of",
    "reconstruct_counts",
    "relative_reconstruction_error",
    "rho2_from_gamma",
    "satisfies_amplification",
    "theorem1_bound",
    "worst_case_posterior",
]
