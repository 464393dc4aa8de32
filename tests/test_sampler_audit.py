"""Sampler audit: every registered sampler draws from the matrix it declares.

The privacy accountant charges each mechanism the amplification of the
matrix it *declares*, so a sampler that drifts from that matrix breaks
the privacy statement without moving any golden file.  Each audit below
perturbs ``N`` copies of every joint value of a tiny schema under a
fixed seed and G-tests each value's output histogram against that
value's column of the declared distribution:

* ``det-gd``, ``ran-gd`` (its expected matrix ``E[Ã]``), ``warner``,
  ``additive-noise`` and a Warner x DET-GD composite: released joint
  values against the columns of ``matrix()``;
* MASK: the pattern over all ``M_b`` bits against the columns of
  ``itemset_matrix(p, M_b)``;
* C&P: the intersection size with one ``M``-itemset against the
  columns of ``reconstruction_matrix(M)``.

One Bonferroni-corrected level covers every histogram of the module.

A histogram pools records, so it cannot see whether they are perturbed
independently.  The count-variance audit can: over a few hundred seeds
of one fixed dataset, the sample variance of each perturbed joint
count ``Y_v`` under DET-GD and RAN-GD is held against the
Poisson-binomial variance of paper Section 4.2, with success
probabilities ``p_i = E[Ã][v, u_i]``.  A RAN-GD sampler that shared
one realised diagonal among several records would inflate it.  Those
variances have a Bonferroni level of their own.

The chi-square tail is computed with the standard library, so the
audit needs no SciPy.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from poisson_binomial import PoissonBinomial

from repro.baselines.mask import itemset_matrix
from repro.data.dataset import CategoricalDataset
from repro.data.schema import Attribute, Schema
from repro.mechanisms import CompositeMechanism, create

#: Copies of every joint value perturbed per audit.
N = 40_000
#: Family-wise false-alarm rate, split evenly over all histograms.
FAMILY_ALPHA = 1e-3


def chi2_sf(statistic: float, df: int) -> float:
    """``P(X >= statistic)`` for ``X ~ chi-square(df)``, integer ``df >= 1``.

    The regularised upper incomplete gamma ``Q(df/2, statistic/2)`` in
    closed form: a Poisson tail for even ``df``, and ``erfc`` plus a
    half-integer series for odd ``df``.
    """
    y = max(statistic, 0.0) / 2.0
    if df % 2 == 0:
        term = total = math.exp(-y)
        for i in range(1, df // 2):
            term *= y / i
            total += term
        return total
    total = math.erfc(math.sqrt(y))
    term = math.exp(-y) * math.sqrt(y) / math.gamma(1.5)
    for i in range(1, (df + 1) // 2):
        total += term
        term *= y / (i + 0.5)
    return total


def g_test(observed, probabilities) -> float:
    """p-value of the G-test of ``observed`` counts against ``probabilities``.

    An outcome the declared column gives probability 0 is impossible:
    observing it once fails the test outright.
    """
    observed = np.asarray(observed, dtype=float)
    probabilities = np.asarray(probabilities, dtype=float)
    assert math.isclose(probabilities.sum(), 1.0, abs_tol=1e-9)
    possible = probabilities > 0.0
    if observed[~possible].any():
        return 0.0
    seen = observed[possible]
    expected = seen.sum() * probabilities[possible]
    hit = seen > 0
    statistic = 2.0 * float(np.sum(seen[hit] * np.log(seen[hit] / expected[hit])))
    df = int(possible.sum()) - 1
    return 1.0 if df == 0 else chi2_sf(statistic, df)


def _schema(*cards) -> Schema:
    return Schema(
        [
            Attribute(f"a{i}", [f"c{i}{j}" for j in range(card)])
            for i, card in enumerate(cards)
        ]
    )


#: The tiny schema (joint size 12, 7 boolean bits) most audits use.
SCHEMA = _schema(3, 2, 2)


def _every_value(schema: Schema):
    """Each joint value once, and ``N`` copies of each in value order."""
    values = CategoricalDataset(schema, schema.decode(np.arange(schema.joint_size)))
    return values, CategoricalDataset(schema, np.repeat(values.records, N, axis=0))


def _p_values(outcomes, n_outcomes: int, matrix, columns) -> list[float]:
    """G-test each origin's outcome histogram against its declared column.

    ``outcomes`` holds ``N`` outcomes per origin, origin by origin, and
    ``columns[u]`` is origin ``u``'s column of ``matrix``.
    """
    origins = np.repeat(np.arange(len(columns)), N)
    histograms = np.bincount(
        origins * n_outcomes + outcomes, minlength=len(columns) * n_outcomes
    ).reshape(len(columns), n_outcomes)
    return [g_test(h, matrix[:, c]) for h, c in zip(histograms, columns)]


def _audit_columnar(mechanism, seed: int) -> list[float]:
    """Released joint values against the columns of ``matrix()``."""
    _, copies = _every_value(mechanism.schema)
    released = mechanism.perturb(copies, seed=seed).joint_indices()
    matrix = mechanism.matrix()
    matrix = matrix.to_dense() if hasattr(matrix, "to_dense") else matrix
    size = mechanism.schema.joint_size
    return _p_values(released, size, matrix, range(size))


def _audit_mask(seed: int) -> list[float]:
    """Patterns over all ``M_b`` bits against ``itemset_matrix(p, M_b)``."""
    mask = create("mask", SCHEMA, gamma=19.0)
    values, copies = _every_value(SCHEMA)
    n_bits = SCHEMA.n_boolean
    # Pattern codes, most significant bit first (the matrix's order).
    weights = 1 << np.arange(n_bits - 1, -1, -1)
    released = mask.perturb(copies, seed=seed) @ weights
    matrix = itemset_matrix(mask.p, n_bits)
    return _p_values(released, 1 << n_bits, matrix, values.to_boolean() @ weights)


def _audit_cut_and_paste(seed: int) -> list[float]:
    """Intersection sizes with one ``M``-itemset against the columns of
    the partial-support matrix ``reconstruction_matrix(M)``."""
    cut_and_paste = create("c&p", SCHEMA, gamma=19.0)
    values, copies = _every_value(SCHEMA)
    # The itemset of every attribute's first category.
    itemset = list(SCHEMA.boolean_offsets())
    k = len(itemset)
    released = cut_and_paste.perturb(copies, seed=seed)[:, itemset].sum(axis=1)
    matrix = cut_and_paste.operator.reconstruction_matrix(k)
    original = values.to_boolean()[:, itemset].sum(axis=1)
    return _p_values(released, k + 1, matrix, original)


AUDITS = {
    "det-gd": lambda: _audit_columnar(create("det-gd", SCHEMA, gamma=5.0), 1),
    "ran-gd": lambda: _audit_columnar(
        create("ran-gd", SCHEMA, gamma=5.0, relative_alpha=0.5), 2
    ),
    "warner": lambda: _audit_columnar(create("warner", _schema(2), p=0.8), 3),
    "additive-noise": lambda: _audit_columnar(
        create("additive-noise", SCHEMA, scale=1.2), 4
    ),
    "warner-x-det-gd": lambda: _audit_columnar(
        CompositeMechanism.build(
            _schema(2, 3, 2),
            [
                {"name": "warner", "n_attributes": 1, "params": {"p": 0.8}},
                {"name": "det-gd", "n_attributes": 2, "params": {"gamma": 7.0}},
            ],
        ),
        5,
    ),
    "mask": lambda: _audit_mask(6),
    "c&p": lambda: _audit_cut_and_paste(7),
}


@pytest.fixture(scope="module")
def p_values() -> dict[str, list[float]]:
    return {name: audit() for name, audit in AUDITS.items()}


@pytest.mark.parametrize("name", AUDITS)
def test_sampler_realises_its_declared_distribution(name, p_values):
    level = FAMILY_ALPHA / sum(len(values) for values in p_values.values())
    failing = {u: p for u, p in enumerate(p_values[name]) if p <= level}
    assert not failing, f"{name}: origin -> p-value below {level:.2g}: {failing}"


#: Seeds of the count-variance audit, one ``perturb`` call each.
VARIANCE_SEEDS = 300
#: Records per joint value of its fixed dataset.  The skew matters: a
#: diagonal shared among records moves ``Y_v`` with the number of
#: records already at ``v`` against the number elsewhere.
VARIANCE_CELL_COUNTS = (400, 200, 150, 100, 80, 60, 50, 40, 40, 30, 30, 20)


def _count_variance_p_values(mechanism) -> list[float]:
    """Two-sided chi-square p-value of each perturbed count's variance.

    ``(seeds - 1) * S^2 / Var[Y_v]`` is chi-square with ``seeds - 1``
    degrees of freedom when ``Y_v`` is near normal, which a
    Poisson-binomial over 1,200 records is.
    """
    size = SCHEMA.joint_size
    joint = np.repeat(np.arange(size), VARIANCE_CELL_COUNTS)
    dataset = CategoricalDataset(SCHEMA, SCHEMA.decode(joint))
    counts = np.array(
        [
            np.bincount(
                mechanism.perturb(dataset, seed=seed).joint_indices(),
                minlength=size,
            )
            for seed in range(VARIANCE_SEEDS)
        ]
    )
    matrix = mechanism.matrix()
    df = VARIANCE_SEEDS - 1
    p_values = []
    for v in range(size):
        variance = PoissonBinomial(matrix[v, joint]).variance
        upper = chi2_sf(df * counts[:, v].var(ddof=1) / variance, df)
        p_values.append(min(1.0, 2.0 * min(upper, 1.0 - upper)))
    return p_values


VARIANCE_AUDITS = {
    "det-gd": lambda: create("det-gd", SCHEMA, gamma=5.0),
    "ran-gd": lambda: create("ran-gd", SCHEMA, gamma=5.0, relative_alpha=0.5),
}


@pytest.fixture(scope="module")
def variance_p_values() -> dict[str, list[float]]:
    return {
        name: _count_variance_p_values(build())
        for name, build in VARIANCE_AUDITS.items()
    }


@pytest.mark.parametrize("name", VARIANCE_AUDITS)
def test_perturbed_counts_have_poisson_binomial_variance(name, variance_p_values):
    level = FAMILY_ALPHA / sum(len(values) for values in variance_p_values.values())
    failing = {v: p for v, p in enumerate(variance_p_values[name]) if p <= level}
    assert not failing, f"{name}: cell -> p-value below {level:.2g}: {failing}"


@pytest.mark.parametrize(
    ("quantile", "df"),
    [
        (3.841458820694124, 1),
        (5.991464547107979, 2),
        (7.814727903251178, 3),
        (11.070497693516351, 5),
        (18.307038053275146, 10),
        (35.17246162690806, 23),
    ],
)
def test_chi2_tail_matches_known_quantiles(quantile, df):
    """The stdlib tail returns 0.05 at the chi-square 95% quantiles."""
    assert chi2_sf(quantile, df) == pytest.approx(0.05, rel=1e-9)
