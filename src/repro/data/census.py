"""The CENSUS evaluation dataset (paper Table 1).

The paper uses ~50,000 records of the UCI "Adult" census database with
three continuous attributes (``age``, ``fnlwgt``, ``hours-per-week``)
partitioned into equi-width intervals and three nominal attributes
(``race``, ``sex``, ``native-country``).  The exact categories are those
of paper Table 1, reproduced verbatim in :func:`census_schema`.

Because the raw UCI data is unavailable offline, :func:`generate_census`
draws records from a seeded prototype-mixture model whose marginals are
modelled on the published Adult statistics and whose prototypes encode
the strong ``native-country/race/sex/hours`` correlations of the real
data.  The mixture is calibrated so that frequent-itemset counts at
``supmin = 2%`` have the same shape as paper Table 3 (long patterns up
to length 6).  See DESIGN.md, "Substitutions".
"""

from __future__ import annotations

from repro.data.dataset import CategoricalDataset
from repro.data.schema import Attribute, Schema
from repro.data.synthetic import MixtureModel, Prototype

#: Number of records in the paper's CENSUS dataset ("approximately 50,000").
CENSUS_N_RECORDS = 50_000

#: Category labels exactly as in paper Table 1.
_CENSUS_ATTRIBUTES = (
    ("age", ("(15-35]", "(35-55]", "(55-75]", "> 75")),
    ("fnlwgt", ("(0-1e5]", "(1e5-2e5]", "(2e5-3e5]", "(3e5-4e5]", "> 4e5")),
    ("hours-per-week", ("(0-20]", "(20-40]", "(40-60]", "(60-80]", "> 80")),
    (
        "race",
        ("White", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other", "Black"),
    ),
    ("sex", ("Female", "Male")),
    ("native-country", ("United-States", "Other")),
)

# Background marginals modelled on the published Adult dataset statistics
# (skew matters: rare categories below supmin drive the paper's count of
# 19 frequent 1-itemsets out of 23 items).
_CENSUS_MARGINALS = (
    (0.45, 0.38, 0.135, 0.035),           # age: young/middle dominate
    (0.43, 0.41, 0.11, 0.04, 0.01),       # fnlwgt: concentrated low
    (0.12, 0.64, 0.19, 0.04, 0.01),       # hours-per-week: 20-40 dominant
    (0.854, 0.031, 0.010, 0.008, 0.097),  # race
    (0.33, 0.67),                         # sex
    (0.90, 0.10),                         # native-country
)

# Prototype profiles (full 6-attribute assignments) carrying the
# cross-attribute correlation.  Column order matches _CENSUS_ATTRIBUTES:
# (age, fnlwgt, hours, race, sex, country).
_CENSUS_PROTOTYPES = (
    ((0, 0, 1, 0, 1, 0), 0.065),  # young US white male, typical job
    ((1, 0, 1, 0, 1, 0), 0.060),  # middle-aged US white male
    ((0, 1, 1, 0, 0, 0), 0.050),  # young US white female
    ((1, 1, 1, 0, 0, 0), 0.045),  # middle-aged US white female
    ((1, 0, 2, 0, 1, 0), 0.040),  # overtime US white male
    ((2, 0, 1, 0, 1, 0), 0.035),  # older US white male
    ((0, 0, 1, 4, 0, 0), 0.030),  # young US black female
    ((0, 1, 2, 0, 1, 0), 0.030),  # young US white male, overtime
    ((2, 1, 1, 0, 0, 0), 0.025),  # older US white female
    ((1, 0, 1, 4, 1, 0), 0.025),  # middle-aged US black male
    ((0, 0, 1, 1, 1, 1), 0.020),  # young Asian immigrant male
    ((0, 0, 0, 0, 0, 0), 0.020),  # young US white female, part-time
)

#: Prototype attribute-noise used by the CENSUS mixture.
CENSUS_NOISE = 0.15


def census_schema() -> Schema:
    """The 6-attribute CENSUS schema with paper-Table-1 categories."""
    return Schema(Attribute(name, cats) for name, cats in _CENSUS_ATTRIBUTES)


def census_mixture() -> MixtureModel:
    """The calibrated generator behind :func:`generate_census`.

    Exposed so tests and ablations can inspect or re-weight it.
    """
    schema = census_schema()
    prototypes = [Prototype(v, w) for v, w in _CENSUS_PROTOTYPES]
    return MixtureModel(schema, _CENSUS_MARGINALS, prototypes, noise=CENSUS_NOISE)


def generate_census(
    n_records: int = CENSUS_N_RECORDS, seed=7001
) -> CategoricalDataset:
    """Generate the synthetic CENSUS dataset.

    Parameters
    ----------
    n_records:
        Dataset size; defaults to the paper's ~50,000.
    seed:
        Seed (or generator); the default makes the canonical dataset
        reproducible across the whole repo.
    """
    return census_mixture().sample(n_records, seed=seed)
