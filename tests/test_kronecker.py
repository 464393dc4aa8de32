"""Tests for repro.stats.kronecker and the matrix-free composite path.

Three layers, mirroring how wide-schema reconstruction is built up:

* the :class:`KroneckerOperator` algebra against dense ``np.kron``
  references (property-based over mixed UODM/dense factors);
* the composite mechanism's operator views (satellite regression tests
  for the silent-``None``/ordering bug in ``marginal_matrix``);
* end-to-end wide-schema reconstruction: a 50-attribute composite whose
  joint domain (``4**50``) could never be materialised perturbs,
  reconstructs and mines -- bit-identically across worker counts, with
  peak RSS linear in the number of attribute groups.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from spawn_reference import perturb_spawned

from repro.data.dataset import CategoricalDataset
from repro.data.schema import Attribute, Schema
from repro.exceptions import ExperimentError, MatrixError
from repro.mechanisms import CompositeMechanism
from repro.mining.counting import ExactSupportCounter
from repro.mining.itemsets import Itemset, all_items
from repro.stats import KroneckerOperator, UniformOffDiagonalMatrix
from repro.stats.kronecker import DENSE_CELL_CAP
from repro.stats.linalg import condition_number as dense_condition_number


def _schema(*cards):
    return Schema(
        [
            Attribute(f"a{i}", [f"c{i}{j}" for j in range(card)])
            for i, card in enumerate(cards)
        ]
    )


def _composite(schema, part_specs):
    return CompositeMechanism.build(schema, part_specs)


def _dense(factor):
    return factor.to_dense() if isinstance(factor, UniformOffDiagonalMatrix) else factor


def _kron_fold(factors):
    result = _dense(factors[0])
    for factor in factors[1:]:
        result = np.kron(result, _dense(factor))
    return result


# ----------------------------------------------------------------------
# hypothesis strategies: mixed well-conditioned factor lists
# ----------------------------------------------------------------------
_uodm_factor = st.builds(
    UniformOffDiagonalMatrix,
    n=st.integers(min_value=1, max_value=4),
    a=st.floats(min_value=0.1, max_value=3.0),
    b=st.floats(min_value=0.0, max_value=2.0),
)


@st.composite
def _dense_factor(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    # Diagonally dominant: comfortably invertible and well conditioned.
    return rng.uniform(0.0, 1.0, size=(n, n)) + n * np.eye(n)


_factor = st.one_of(_uodm_factor, _dense_factor())
_factors = st.lists(_factor, min_size=1, max_size=4)


class TestKroneckerAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(factors=_factors, seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_matvec_matches_dense_kron(self, factors, seed):
        op = KroneckerOperator(factors)
        dense = _kron_fold(factors)
        v = np.random.default_rng(seed).normal(size=op.n)
        assert np.allclose(op.matvec(v), dense @ v, rtol=1e-10, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(factors=_factors, seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_solve_matches_dense_kron(self, factors, seed):
        op = KroneckerOperator(factors)
        dense = _kron_fold(factors)
        rhs = np.random.default_rng(seed).normal(size=op.n)
        assert np.allclose(
            op.solve(rhs), np.linalg.solve(dense, rhs), rtol=1e-8, atol=1e-8
        )

    @settings(max_examples=60, deadline=None)
    @given(factors=_factors)
    def test_to_dense_is_bit_identical_to_kron_fold(self, factors):
        # Not merely close: to_dense must reproduce the old dense
        # left-fold exactly, or golden fixtures built on it would drift.
        assert np.array_equal(KroneckerOperator(factors).to_dense(), _kron_fold(factors))

    @settings(max_examples=40, deadline=None)
    @given(factors=_factors)
    def test_condition_number_is_product_of_factors(self, factors):
        op = KroneckerOperator(factors)
        assert op.condition_number() == pytest.approx(
            dense_condition_number(_kron_fold(factors)), rel=1e-6
        )

    @settings(max_examples=40, deadline=None)
    @given(factors=_factors, seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_inverse_roundtrips(self, factors, seed):
        op = KroneckerOperator(factors)
        v = np.random.default_rng(seed).normal(size=op.n)
        assert np.allclose(op.inverse().matvec(op.matvec(v)), v, rtol=1e-8, atol=1e-8)
        assert np.allclose(
            op.inverse().to_dense(), np.linalg.inv(_kron_fold(factors)), atol=1e-8
        )

    def test_nested_operators_flatten(self):
        a = UniformOffDiagonalMatrix(n=2, a=1.0, b=0.5)
        b = np.array([[2.0, 1.0], [0.0, 3.0]])
        nested = KroneckerOperator([KroneckerOperator([a, b]), a])
        assert len(nested.factors) == 3
        assert np.array_equal(nested.to_dense(), _kron_fold([a, b, a]))

    def test_gamma_diagonal_factor_stays_closed_form(self):
        from repro.core.gamma_diagonal import GammaDiagonalMatrix

        gd = GammaDiagonalMatrix(gamma=19.0, n=4)
        op = KroneckerOperator([gd, gd])
        # Coerced through as_uniform_family(): no dense factor present.
        assert all(
            isinstance(f, UniformOffDiagonalMatrix) for f in op.factors
        )
        assert np.allclose(op.to_dense(), np.kron(gd.to_dense(), gd.to_dense()))
        assert op.condition_number() == pytest.approx(gd.condition_number() ** 2)


class TestKroneckerValidation:
    def test_needs_at_least_one_factor(self):
        with pytest.raises(MatrixError):
            KroneckerOperator([])

    def test_rejects_non_square_factor(self):
        with pytest.raises(MatrixError):
            KroneckerOperator([np.ones((2, 3))])

    def test_rejects_bad_vector_shape(self):
        op = KroneckerOperator([np.eye(2), np.eye(3)])
        with pytest.raises(MatrixError):
            op.matvec(np.ones(5))
        with pytest.raises(MatrixError):
            op.solve(np.ones(7))

    def test_singular_uodm_factor_rejected(self):
        singular = UniformOffDiagonalMatrix(n=2, a=0.0, b=1.0)
        op = KroneckerOperator([singular, np.eye(3)])
        assert op.is_singular()
        with pytest.raises(MatrixError):
            op.solve(np.ones(6))
        with pytest.raises(MatrixError):
            op.inverse()

    def test_singular_dense_factor_rejected(self):
        op = KroneckerOperator([np.eye(2), np.zeros((3, 3))])
        assert op.is_singular()
        with pytest.raises(MatrixError):
            op.solve(np.ones(6))

    def test_solve_atol_threads_to_uodm_factors(self):
        near = UniformOffDiagonalMatrix(n=3, a=1e-13, b=1.0)
        op = KroneckerOperator([near])
        with pytest.raises(MatrixError):
            op.solve(np.ones(3))
        assert np.all(np.isfinite(op.solve(np.ones(3), atol=0.0)))


class TestKroneckerWideExactness:
    def test_exact_python_int_dimensions(self):
        # 100 binary factors: n = 2**100 overflows any fixed-width
        # integer; the operator must report it exactly.
        factors = [UniformOffDiagonalMatrix(n=2, a=1.0, b=0.1)] * 100
        op = KroneckerOperator(factors)
        assert op.n == 2**100
        assert op.shape == (2**100, 2**100)
        # And its condition number is still an O(#factors) closed form.
        single = factors[0].condition_number()
        assert op.condition_number() == pytest.approx(single**100, rel=1e-9)

    def test_to_dense_cap_refuses_wide_operators(self):
        op = KroneckerOperator([UniformOffDiagonalMatrix(n=4, a=1.0, b=0.1)] * 50)
        assert op.n == 4**50
        with pytest.raises(MatrixError, match="refusing to densify"):
            op.to_dense()
        # An explicit larger-but-still-impossible cap also refuses
        # before any allocation is attempted.
        with pytest.raises(MatrixError):
            op.to_dense(max_cells=DENSE_CELL_CAP * 2)

    def test_cap_boundary_is_inclusive(self):
        op = KroneckerOperator([np.eye(3)])
        assert np.array_equal(op.to_dense(max_cells=9), np.eye(3))
        with pytest.raises(MatrixError):
            op.to_dense(max_cells=8)


class TestCompositeOperators:
    """Satellite regressions: composite marginal/joint operator views."""

    @pytest.fixture
    def composite(self):
        schema = _schema(2, 3, 4)
        return _composite(
            schema,
            [
                {"name": "warner", "n_attributes": 1, "params": {"p": 0.8}},
                {"name": "det-gd", "n_attributes": 2, "params": {"gamma": 7.0}},
            ],
        )

    def test_matrix_returns_operator_not_dense(self, composite):
        op = composite.matrix()
        assert isinstance(op, KroneckerOperator)
        dense = op.to_dense()
        assert dense.shape == (24, 24)
        assert np.allclose(dense.sum(axis=0), 1.0)

    def test_marginal_matrix_never_returns_none(self, composite):
        # The old implementation fell through to ``return None`` when a
        # guard failed; every path now returns an operator or raises.
        for positions in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]:
            op = composite.marginal_matrix(positions)
            assert op is not None
            assert op.shape[0] == composite.schema.subset_size(positions)

    def test_marginal_matrix_rejects_unsorted_positions(self, composite):
        # Unsorted cross-part subsets would silently disagree with the
        # factor order; they must raise, not reorder.
        with pytest.raises(ExperimentError, match="strictly increasing"):
            composite.marginal_matrix((2, 0))
        with pytest.raises(ExperimentError, match="strictly increasing"):
            composite.marginal_matrix((1, 1))

    def test_marginal_matrix_rejects_empty_and_out_of_range(self, composite):
        with pytest.raises(ExperimentError, match="non-empty"):
            composite.marginal_matrix(())
        with pytest.raises(ExperimentError):
            composite.marginal_matrix((0, 3))
        with pytest.raises(ExperimentError):
            composite.marginal_matrix((-1,))

    def test_cross_part_marginal_matches_dense_kron(self, composite):
        # (0, 2): Warner's only column with the second det-gd column.
        op = composite.marginal_matrix((0, 2))
        warner, detgd = composite.parts
        expected = np.kron(
            warner.marginal_matrix((0,)), detgd.marginal_matrix((1,))
        )
        assert np.allclose(op.to_dense(), expected)

    def test_additive_noise_operator_matches_dense(self):
        from repro.mechanisms import create

        schema = _schema(3, 4)
        mech = create("additive-noise", schema, scale=1.0)
        assert np.array_equal(mech.matrix_operator().to_dense(), mech.matrix())
        assert np.array_equal(
            mech.marginal_operator((1,)).to_dense(), mech.marginal_matrix((1,))
        )


WIDE_ATTRS = 50


@pytest.fixture(scope="module")
def wide_schema():
    return _schema(*([4] * WIDE_ATTRS))


@pytest.fixture(scope="module")
def wide_composite(wide_schema):
    # High per-part gamma: near-identity perturbation, so reconstruction
    # accuracy is checkable on modest record counts.
    return _composite(
        wide_schema,
        [
            {"name": "det-gd", "n_attributes": 1, "params": {"gamma": 400.0}}
            for _ in range(WIDE_ATTRS)
        ],
    )


@pytest.fixture(scope="module")
def wide_dataset(wide_schema):
    rng = np.random.default_rng(7)
    n = 4000
    records = rng.integers(0, 4, size=(n, WIDE_ATTRS))
    # Plant a frequent pattern so mining has something to find.
    records[: n // 2, 0] = 0
    records[: n // 2, 17] = 1
    records[: n // 2, 49] = 2
    return CategoricalDataset(wide_schema, records)


class TestWideSchema:
    def test_joint_size_is_exact(self, wide_schema):
        assert wide_schema.joint_size == 4**50
        assert isinstance(wide_schema.joint_size, int)
        # 4**50 is divisible by 2**64: an int64/uint64 joint size would
        # have silently wrapped to 0 here.
        assert wide_schema.joint_size % (2**64) == 0
        assert wide_schema.subset_size((0, 17, 49)) == 64

    def test_wide_matrix_is_implicit_and_accountable(self, wide_composite):
        op = wide_composite.matrix()
        assert isinstance(op, KroneckerOperator)
        assert op.n == 4**50
        part_cond = wide_composite.parts[0].engine.matrix.condition_number()
        assert op.condition_number() == pytest.approx(part_cond**50, rel=1e-9)
        with pytest.raises(MatrixError):
            op.to_dense()

    def test_accountant_reports_wide_condition_number(self, wide_composite):
        from repro.mechanisms import PrivacyAccountant

        statement = PrivacyAccountant().statement(wide_composite)
        part_cond = wide_composite.parts[0].engine.matrix.condition_number()
        assert statement.condition_number == pytest.approx(part_cond**50, rel=1e-9)
        assert math.isfinite(statement.condition_number)

    def test_wide_reconstruction_is_accurate(self, wide_composite, wide_dataset):
        itemsets = [
            Itemset.of((0, 0)),
            Itemset.of((17, 1)),
            Itemset.of((0, 0), (17, 1)),
            Itemset.of((0, 0), (17, 1), (49, 2)),
        ]
        truth = ExactSupportCounter(wide_dataset).supports(itemsets)
        estimator = wide_composite.build_estimator(wide_dataset, seed=3)
        estimated = estimator.supports(itemsets)
        assert np.abs(estimated - truth).max() < 0.05

    def test_wide_pipeline_bit_identical_across_layouts(
        self, wide_composite, wide_dataset
    ):
        """Every multi-worker layout must produce the spawn oracle's
        estimates on a joint domain far beyond any materialisable count
        vector."""
        from repro.mechanisms.base import MarginalInversionEstimator

        itemsets = [
            Itemset.of((0, 0)),
            Itemset.of((3, 2)),
            Itemset.of((0, 0), (17, 1)),
            Itemset.of((0, 0), (17, 1), (49, 2)),
        ]
        perturbed = perturb_spawned(wide_composite, wide_dataset, 11, 512)
        reference = MarginalInversionEstimator(
            wide_composite, perturbed.subset_counts, perturbed.n_records
        ).supports(itemsets)
        for workers in (2, 4):
            estimates = wide_composite.build_estimator(
                wide_dataset, seed=11, workers=workers, chunk_size=512
            ).supports(itemsets)
            assert np.array_equal(estimates, reference), workers

    def test_wide_end_to_end_mining(self, wide_composite, wide_dataset):
        """Perturb -> reconstruct -> mine without the joint ever existing."""
        from repro.api import Session

        session = Session(
            wide_dataset.schema, mechanism=wide_composite, seed=5, workers=2,
            chunk_size=1024,
        )
        result = session.mine(wide_dataset, min_support=0.3)
        frequent_1 = result.by_length.get(1, {})
        assert Itemset.of((0, 0)) in frequent_1
        assert Itemset.of((17, 1)) in frequent_1
        frequent_2 = result.by_length.get(2, {})
        assert Itemset.of((0, 0), (17, 1)) in frequent_2


def _wide_singletons(n_groups):
    """Pipeline-perturb 10^5 planted ``n_groups``-attribute records, pack
    them and reconstruct every singleton through the marginal operators."""
    n_records = 100_000
    schema = _schema(*([4] * n_groups))
    composite = _composite(
        schema,
        [
            {"name": "det-gd", "n_attributes": 1, "params": {"gamma": 150.0}}
            for _ in range(n_groups)
        ],
    )
    records = np.random.default_rng(77).integers(0, 4, size=(n_records, n_groups))
    records[: n_records // 2, 0] = 0
    records[: n_records // 2, n_groups - 1] = 2
    estimator = composite.build_estimator(
        CategoricalDataset(schema, records),
        seed=7,
        workers=2,
        chunk_size=n_records // 16,
    )
    return estimator.supports(all_items(schema))


def _peak_rss_bytes():
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024
    raise OSError("no VmHWM line")


class TestWideSchemaMemory:
    def test_peak_rss_linear_in_group_count(self):
        """Peak RSS grows about linearly with the attribute-group count
        (3x slack over the linear extrapolation from 12 groups, plus
        64 MiB for allocator noise) though the joint domain grows as
        ``4**g``, and the widest run stays below the dense joint-count
        vector of even the narrowest (``8 * 4**12`` bytes)."""
        try:
            Path("/proc/self/clear_refs").write_text("5")
            _peak_rss_bytes()
        except OSError:
            pytest.skip("needs Linux's resettable peak-RSS counter")
        nets = {}
        for n_groups in (12, 25, 50):
            Path("/proc/self/clear_refs").write_text("5")
            before = _peak_rss_bytes()
            supports = _wide_singletons(n_groups)
            nets[n_groups] = _peak_rss_bytes() - before
            assert supports.shape == (4 * n_groups,)
            assert np.all(np.isfinite(supports))
            # The planted singleton sits at ~0.625, the rest near 0.25.
            assert abs(supports[0] - 0.625) < 0.05
        for n_groups in (25, 50):
            linear = nets[12] * n_groups / 12
            assert nets[n_groups] <= 3.0 * linear + 64 * 2**20, nets
        assert nets[50] < 8 * 4**12, nets


class TestBitmapSubsetCounts:
    def test_matches_dataset_subset_counts(self):
        from repro.mining.kernels.bitmap import TransactionBitmaps

        schema = _schema(2, 3, 4)
        rng = np.random.default_rng(0)
        records = np.stack(
            [rng.integers(0, c, 500) for c in schema.cardinalities], axis=1
        )
        dataset = CategoricalDataset(schema, records)
        bitmaps = TransactionBitmaps.from_dataset(dataset)
        for positions in [(0,), (1,), (2,), (0, 2), (1, 2), (0, 1, 2)]:
            assert np.array_equal(
                bitmaps.subset_counts(positions), dataset.subset_counts(positions)
            )

    def test_validates_positions(self):
        from repro.exceptions import DataError
        from repro.mining.kernels.bitmap import TransactionBitmaps

        schema = _schema(2, 3)
        bitmaps = TransactionBitmaps.from_records(schema, np.zeros((4, 2), dtype=int))
        with pytest.raises(DataError):
            bitmaps.subset_counts(())
        with pytest.raises(DataError):
            bitmaps.subset_counts((0, 0))
        with pytest.raises(DataError):
            bitmaps.subset_counts((5,))
