"""Statistical and linear-algebra substrates used by the FRAPP core.

Public contents:

* :mod:`repro.stats.linalg` -- helpers for the ``a*I + b*J`` matrix
  family (the gamma-diagonal matrix and its marginals), Markov-matrix
  validation and condition numbers.
* :mod:`repro.stats.kronecker` -- implicit Kronecker-product operators
  (matvec / solve / condition number factor by factor), the layer that
  keeps composite mechanisms matrix-free on wide schemas.
* :mod:`repro.stats.rng` -- seeded random-generator plumbing.
"""

from repro.stats.kronecker import KroneckerOperator
from repro.stats.linalg import (
    UniformOffDiagonalMatrix,
    condition_number,
    is_markov_matrix,
    is_symmetric,
    markov_violation,
)
from repro.stats.rng import as_generator, as_seed_sequence, spawn_generators

__all__ = [
    "KroneckerOperator",
    "UniformOffDiagonalMatrix",
    "as_generator",
    "as_seed_sequence",
    "condition_number",
    "is_markov_matrix",
    "is_symmetric",
    "markov_violation",
    "spawn_generators",
]
