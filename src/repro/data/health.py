"""The HEALTH evaluation dataset (paper Table 2).

The paper uses >100,000 patient records from the US National Health
Interview Survey with three continuous attributes (age, bed-days,
doctor-visits) equi-width partitioned, and four nominal attributes
(phone, sex, family income, health status).  :func:`health_schema`
reproduces the paper-Table-2 categories verbatim.

As with CENSUS, the raw survey data is unavailable offline, so
:func:`generate_health` samples a seeded prototype-mixture model
calibrated to give paper-Table-3-shaped frequent-itemset counts at
``supmin = 2%`` (long patterns up to the full length 7).  See DESIGN.md.
"""

from __future__ import annotations

from repro.data.dataset import CategoricalDataset
from repro.data.schema import Attribute, Schema
from repro.data.synthetic import MixtureModel, Prototype

#: Number of records in the paper's HEALTH dataset ("over 100,000").
HEALTH_N_RECORDS = 100_000

#: Category labels exactly as in paper Table 2.
_HEALTH_ATTRIBUTES = (
    ("AGE", ("[0-20)", "[20-40)", "[40-60)", "[60-80)", ">= 80")),
    ("BDDAY12", ("[0-7)", "[7-15)", "[15-30)", "[30-60)", ">= 60")),
    ("DV12", ("[0-7)", "[7-15)", "[15-30)", "[30-60)", ">= 60")),
    (
        "PHONE",
        (
            "Yes, phone number given",
            "Yes, no phone number given",
            "No",
        ),
    ),
    ("SEX", ("Male", "Female")),
    ("INCFAM20", ("Less than $20,000", "$20,000 or more")),
    ("HEALTH", ("Excellent", "Very Good", "Good", "Fair", "Poor")),
)

# Background marginals modelled on NHIS summary statistics: the survey
# population is heavily concentrated -- most respondents report 0-7 bed
# days, 0-7 doctor visits, a listed phone number and good-to-excellent
# health -- which is what lets long patterns stay well above supmin.
# Raw (background) values are inflated relative to the effective
# marginal by the ~0.565 background+noise factor, so that exactly 23 of
# the 27 categories clear supmin=2% (the four open-ended tails stay
# below it), matching paper Table 3's 23 frequent 1-itemsets.
_HEALTH_MARGINALS = (
    (0.30, 0.29, 0.22, 0.175, 0.015),     # AGE: >=80 below supmin
    (0.808, 0.089, 0.044, 0.038, 0.021),  # BDDAY12: >=60 below supmin
    (0.745, 0.142, 0.053, 0.039, 0.021),  # DV12: >=60 below supmin
    (0.867, 0.089, 0.044),                # PHONE
    (0.48, 0.52),                         # SEX
    (0.36, 0.64),                         # INCFAM20
    (0.34, 0.29, 0.235, 0.12, 0.015),     # HEALTH: Poor below supmin
)

# Prototype profiles carrying the correlations (healthy cohorts with the
# dominant BDDAY/DV/PHONE values, split by age, sex, income and health
# status).  Column order: (AGE, BDDAY12, DV12, PHONE, SEX, INCFAM20,
# HEALTH).
_HEALTH_PROTOTYPES = (
    ((1, 0, 0, 0, 1, 1, 0), 0.050),  # healthy young woman, higher income
    ((1, 0, 0, 0, 0, 1, 0), 0.046),  # healthy young man, higher income
    ((0, 0, 0, 0, 0, 1, 0), 0.044),  # healthy boy
    ((0, 0, 0, 0, 1, 1, 1), 0.042),  # very-good-health girl
    ((2, 0, 0, 0, 1, 1, 1), 0.040),  # middle-aged woman, very good
    ((2, 0, 0, 0, 0, 1, 2), 0.038),  # middle-aged man, good
    ((1, 0, 0, 0, 1, 0, 2), 0.034),  # young woman, lower income, good
    ((0, 0, 0, 0, 0, 0, 1), 0.032),  # lower-income boy, very good
    ((2, 0, 0, 0, 1, 1, 0), 0.030),  # middle-aged woman, excellent
    ((1, 0, 0, 0, 0, 0, 1), 0.028),  # young man, lower income
    ((3, 0, 0, 0, 1, 1, 2), 0.027),  # older woman, good
    ((0, 0, 0, 0, 1, 1, 0), 0.026),  # excellent-health girl
    ((3, 0, 1, 0, 0, 1, 2), 0.024),  # older man, some doctor visits
    ((3, 1, 1, 0, 1, 0, 3), 0.022),  # older woman, fair health
)

#: Prototype attribute-noise used by the HEALTH mixture.
HEALTH_NOISE = 0.10


def health_schema() -> Schema:
    """The 7-attribute HEALTH schema with paper-Table-2 categories."""
    return Schema(Attribute(name, cats) for name, cats in _HEALTH_ATTRIBUTES)


def health_mixture() -> MixtureModel:
    """The calibrated generator behind :func:`generate_health`."""
    schema = health_schema()
    prototypes = [Prototype(v, w) for v, w in _HEALTH_PROTOTYPES]
    return MixtureModel(schema, _HEALTH_MARGINALS, prototypes, noise=HEALTH_NOISE)


def generate_health(
    n_records: int = HEALTH_N_RECORDS, seed=7002
) -> CategoricalDataset:
    """Generate the synthetic HEALTH dataset (defaults: paper-scale, seeded)."""
    return health_mixture().sample(n_records, seed=seed)
