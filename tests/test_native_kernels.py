"""The native kernel layer: wrappers, edge cases, fallbacks, surfacing.

Four contracts under test:

* the compiled wrappers in :mod:`repro.mining.kernels.native` reproduce
  their NumPy references exactly (counts, realisations, RNG stream and
  state advance);
* every counting side (``kernel_sides``) agrees with the ``bincount``
  oracle on every edge shape -- empty datasets, single records,
  tail-word boundaries around multiples of 64, and mixed-alignment
  chunk concatenation;
* the degradation ladder behaves: the ``np.bitwise_count``-less table
  popcount matches the builtin branch bit for bit, and without the
  extension the kernel layer selects the NumPy kernels silently;
* the active kernel is surfaced -- service ``/v1/health``, the runtime
  estimator, and the ``frapp kernels`` report.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from kernel_sides import KERNEL_SIDES, KERNELS, kernel_side, oracle_supports
from realise_reference import realise_reference as _realise_reference

import repro.core.engine as engine_module
from repro.core.engine import (
    GammaDiagonalPerturbation,
    RandomizedGammaDiagonalPerturbation,
)
from repro.core.privacy import rho2_from_gamma
from repro.data import census_schema, generate_census
from repro.data.dataset import CategoricalDataset
from repro.data.schema import Attribute, Schema
from repro.exceptions import MiningError
from repro.experiments.cli import main
from repro.mining.counting import ExactSupportCounter
from repro.mining.itemsets import Itemset, all_items
from repro.mechanisms.base import MarginalInversionEstimator
from repro.mining.kernels import (
    BitmapSupportCounter,
    TransactionBitmaps,
    native,
    popcount_words,
)
from repro.mining.kernels import bitmap as bitmap_module
from repro.mining.apriori import generate_candidates
from repro.service import PerturbationService, ServiceConfig

needs_native = pytest.mark.skipif(
    not native.available(), reason="compiled kernel extension not built"
)

GAMMA = 19.0


def _schema(*cards):
    return Schema(
        [
            Attribute(f"a{i}", [f"v{j}" for j in range(card)])
            for i, card in enumerate(cards)
        ]
    )


def _dataset(schema, n, seed=0):
    rng = np.random.default_rng(seed)
    cards = np.asarray(schema.cardinalities)
    return CategoricalDataset(
        schema, rng.integers(0, cards, size=(n, schema.n_attributes))
    )


def _bitcount_reference(words, axis=None):
    """Popcount via Python ``int.bit_count`` -- slow but unarguable."""
    counts = np.asarray(np.frompyfunc(lambda w: int(w).bit_count(), 1, 1)(words))
    return counts.astype(np.int64).sum(axis=axis, dtype=np.int64)


# ----------------------------------------------------------------------
# compiled wrappers vs NumPy references
# ----------------------------------------------------------------------


@needs_native
class TestNativeWrappers:
    def test_popcounts_match_reference(self):
        rng = np.random.default_rng(1)
        words = rng.integers(0, 2**63, size=(7, 5), dtype=np.int64).astype(
            np.uint64
        )
        assert native.popcount_total(words) == int(_bitcount_reference(words))
        got = native.popcount_rows(words)
        assert got.dtype == np.int64
        assert np.array_equal(got, _bitcount_reference(words, axis=1))

    def test_popcounts_of_empty(self):
        assert native.popcount_total(np.zeros(0, dtype=np.uint64)) == 0
        empty_rows = np.zeros((3, 0), dtype=np.uint64)
        assert np.array_equal(
            native.popcount_rows(empty_rows), np.zeros(3, dtype=np.int64)
        )

    def test_and_group_counts_matches_reduce(self):
        rng = np.random.default_rng(2)
        words = rng.integers(0, 2**63, size=(10, 4), dtype=np.int64).astype(
            np.uint64
        )
        groups = rng.integers(0, 10, size=(6, 3))
        expected_words = np.bitwise_and.reduce(words[groups], axis=1)
        expected = _bitcount_reference(expected_words, axis=1)
        out = np.empty((6, 4), dtype=np.uint64)
        counts = native.and_group_counts(words, groups, out_words=out)
        assert np.array_equal(counts, expected)
        assert np.array_equal(out, expected_words)
        # Scattered cache write: group g lands in row out_idx[g].
        scatter = np.zeros((9, 4), dtype=np.uint64)
        idx = np.array([8, 1, 5, 0, 2, 7])
        counts = native.and_group_counts(
            words, groups, out_words=scatter, out_idx=idx
        )
        assert np.array_equal(counts, expected)
        assert np.array_equal(scatter[idx], expected_words)

    def test_and_pair_counts_matches_reference(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 2**63, size=(5, 6), dtype=np.int64).astype(np.uint64)
        b = rng.integers(0, 2**63, size=(8, 6), dtype=np.int64).astype(np.uint64)
        a_idx = rng.integers(0, 5, size=7)
        b_idx = rng.integers(0, 8, size=7)
        expected_words = a[a_idx] & b[b_idx]
        expected = _bitcount_reference(expected_words, axis=1)
        out = np.zeros((7, 6), dtype=np.uint64)
        counts = native.and_pair_counts(
            a, a_idx, b, b_idx, out_words=out, out_idx=np.arange(7)
        )
        assert np.array_equal(counts, expected)
        assert np.array_equal(out, expected_words)

    @pytest.mark.parametrize("scalar_diag", [True, False])
    def test_realise_from_uniforms_matches_reference(self, scalar_diag):
        rng = np.random.default_rng(4)
        n, m = 360, 500
        joint = rng.integers(0, n, size=m)
        draws = rng.random((m, 3))
        diagonal = 0.6 if scalar_diag else rng.random(m)
        got = native.realise_from_uniforms(
            joint, diagonal, n, draws, keep_col=1, shift_col=2
        )
        expected = _realise_reference(
            joint, diagonal, n, draws[:, 1], draws[:, 2]
        )
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    def test_realise_decodes_like_unravel_index(self):
        rng = np.random.default_rng(5)
        cards = (5, 8, 9)
        n = int(np.prod(cards))
        m = 400
        joint = rng.integers(0, n, size=m)
        draws = rng.random((m, 2))
        got = native.realise_from_uniforms(
            joint, 0.55, n, draws, keep_col=0, shift_col=1,
            cards=cards, out_dtype=np.uint8,
        )
        realised = _realise_reference(joint, 0.55, n, draws[:, 0], draws[:, 1])
        expected = np.stack(np.unravel_index(realised, cards), axis=1)
        assert got.dtype == np.uint8
        assert got.shape == (m, len(cards))
        assert np.array_equal(got, expected)

    def test_draw_realise_matches_stream_and_advances_state(self):
        n, m = 270, 333
        joint = np.random.default_rng(6).integers(0, n, size=m)
        rng_native = np.random.default_rng(99)
        rng_python = np.random.default_rng(99)
        got = native.draw_realise(
            rng_native, joint, 0.4, n, width=2, keep_col=0, shift_col=1
        )
        draws = rng_python.random((m, 2))
        expected = _realise_reference(joint, 0.4, n, draws[:, 0], draws[:, 1])
        assert np.array_equal(got, expected)
        # Identical state advance: the next draw must agree too.
        assert rng_native.random() == rng_python.random()

    def test_wrapper_validation(self):
        words = np.zeros((4, 2), dtype=np.uint64)
        with pytest.raises(ValueError):
            native.and_group_counts(np.zeros((4, 2)), np.zeros((1, 1)))
        with pytest.raises(ValueError):
            native.and_group_counts(words, np.zeros(3, dtype=np.int64))
        with pytest.raises(ValueError):
            native.and_group_counts(
                words,
                np.zeros((1, 1), dtype=np.int64),
                out_words=np.zeros((1, 3), dtype=np.uint64),
            )
        with pytest.raises(ValueError):
            native.realise_from_uniforms(
                np.zeros(2, dtype=np.int64), 0.5, 4, np.zeros((3, 2)),
                keep_col=0, shift_col=1,
            )
        with pytest.raises(ValueError):
            native.realise_from_uniforms(
                np.zeros(2, dtype=np.int64), np.zeros(3), 4, np.zeros((2, 2)),
                keep_col=0, shift_col=1,
            )
        with pytest.raises(ValueError):
            native.draw_realise(
                np.random.default_rng(0), np.zeros(2, dtype=np.int64),
                0.5, 4, width=9, keep_col=0, shift_col=1,
            )
        with pytest.raises(ValueError):
            native.draw_realise(
                np.random.default_rng(0), np.zeros(2, dtype=np.int64),
                0.5, native.MAX_NATIVE_DOMAIN * 2, width=2,
                keep_col=0, shift_col=1,
            )


# ----------------------------------------------------------------------
# edge cases, identical across every counting side
# ----------------------------------------------------------------------


def _exact_supports(side, dataset, itemsets):
    """Supports of ``itemsets`` counted on one counting side."""
    if side == "loops":
        return oracle_supports(dataset, itemsets)
    with kernel_side(side):
        return ExactSupportCounter(dataset).supports(itemsets)


class TestBackendEdgeCases:
    @pytest.mark.parametrize("backend", KERNEL_SIDES)
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 129])
    def test_tail_word_boundaries(self, backend, n):
        """Counts at and around the 64-record word boundary stay exact."""
        schema = _schema(3, 2, 4)
        dataset = _dataset(schema, n, seed=n)
        items = all_items(schema)
        queries = items + generate_candidates(items)
        got = _exact_supports(backend, dataset, queries)
        records = np.asarray(dataset.records)
        for itemset, support in zip(queries, got):
            matches = np.ones(n, dtype=bool)
            for attr, value in itemset.items:
                matches &= records[:, attr] == value
            assert support == matches.sum() / n

    @pytest.mark.parametrize("backend", KERNEL_SIDES)
    def test_empty_dataset_raises(self, backend):
        schema = _schema(3, 2)
        empty = CategoricalDataset(schema, np.empty((0, 2), dtype=int))
        with pytest.raises(MiningError):
            _exact_supports(backend, empty, [Itemset.of((0, 0))])

    @pytest.mark.parametrize("backend", KERNELS)
    def test_empty_bitmap_counts_are_zero(self, backend):
        """Zero records means zero words -- counts must come back 0."""
        schema = _schema(3, 2)
        bitmaps = TransactionBitmaps.from_records(
            schema, np.empty((0, 2), dtype=int)
        )
        assert bitmaps.n_words == 0
        items = all_items(schema)
        queries = items + generate_candidates(items)
        with kernel_side(backend):
            counts = BitmapSupportCounter(bitmaps).counts(queries)
            assert bitmaps.itemset_count(items[0]) == 0
            subset = bitmaps.subset_counts([0])
        assert np.array_equal(counts, np.zeros(len(queries), dtype=np.int64))
        assert np.array_equal(subset, np.zeros(3, np.int64))

    @pytest.mark.parametrize("backend", KERNELS)
    def test_single_record_bitmaps(self, backend):
        schema = _schema(4, 3)
        bitmaps = TransactionBitmaps.from_records(schema, [[2, 1]])
        expected = np.zeros(12, dtype=np.int64)
        expected[2 * 3 + 1] = 1
        with kernel_side(backend):
            assert bitmaps.itemset_count(Itemset.of((0, 2), (1, 1))) == 1
            assert bitmaps.itemset_count(Itemset.of((0, 2), (1, 0))) == 0
            assert np.array_equal(bitmaps.subset_counts([0, 1]), expected)

    @pytest.mark.parametrize("backend", KERNELS)
    def test_mixed_alignment_concatenate(self, backend):
        """Chunks with ragged tails merge without perturbing any count."""
        schema = _schema(3, 2, 3)
        dataset = _dataset(schema, 63 + 1 + 65 + 64, seed=17)
        records = np.asarray(dataset.records)
        parts, start = [], 0
        for size in (63, 1, 65, 64):
            parts.append(
                TransactionBitmaps.from_records(
                    schema, records[start : start + size]
                )
            )
            start += size
        merged = TransactionBitmaps.concatenate(parts)
        one_shot = TransactionBitmaps.from_records(schema, records)
        assert merged.n_records == one_shot.n_records
        items = all_items(schema)
        queries = items + generate_candidates(items)
        with kernel_side(backend):
            assert np.array_equal(
                BitmapSupportCounter(merged).counts(queries),
                BitmapSupportCounter(one_shot).counts(queries),
            )
            for positions in ([0], [1, 2], [0, 1, 2]):
                assert np.array_equal(
                    merged.subset_counts(positions),
                    one_shot.subset_counts(positions),
                )
                assert np.array_equal(
                    merged.subset_counts(positions),
                    dataset.subset_counts(positions),
                )


# ----------------------------------------------------------------------
# degradation ladder
# ----------------------------------------------------------------------


class TestPopcountTableFallback:
    """The pre-``np.bitwise_count`` table branch pins the builtin one."""

    def _compare(self, words, axis):
        expected = _bitcount_reference(words, axis=axis)
        got = popcount_words(words, axis=axis)
        assert np.shape(got) == np.shape(expected)
        assert np.asarray(got).dtype == np.int64
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_table_branch_matches_builtin(self, monkeypatch, axis):
        rng = np.random.default_rng(8)
        words = rng.integers(0, 2**63, size=(13, 21), dtype=np.int64).astype(
            np.uint64
        )
        builtin = None
        if bitmap_module._HAVE_BITWISE_COUNT:
            builtin = popcount_words(words, axis=axis)
        monkeypatch.setattr(bitmap_module, "_HAVE_BITWISE_COUNT", False)
        self._compare(words, axis)
        if builtin is not None:
            assert np.array_equal(popcount_words(words, axis=axis), builtin)

    def test_table_branch_edge_shapes(self, monkeypatch):
        monkeypatch.setattr(bitmap_module, "_HAVE_BITWISE_COUNT", False)
        self._compare(np.zeros((0, 4), dtype=np.uint64), None)
        self._compare(np.zeros((0, 4), dtype=np.uint64), 1)
        self._compare(np.uint64(2**63 - 1), None)
        rng = np.random.default_rng(9)
        cube = rng.integers(0, 2**63, size=(3, 4, 5), dtype=np.int64).astype(
            np.uint64
        )
        for axis in (None, 0, 1, 2):
            self._compare(cube, axis)

    def test_table_branch_slab_boundaries(self, monkeypatch):
        """Tiny slabs force every loop boundary without changing results."""
        monkeypatch.setattr(bitmap_module, "_HAVE_BITWISE_COUNT", False)
        monkeypatch.setattr(bitmap_module, "_POPCOUNT_SLAB_BYTES", 32)
        rng = np.random.default_rng(10)
        words = rng.integers(0, 2**63, size=(9, 7), dtype=np.int64).astype(
            np.uint64
        )
        for axis in (None, 0, 1):
            self._compare(words, axis)


def test_missing_extension_selects_numpy_silently(monkeypatch):
    """Without the extension every kernel runs on NumPy, without a word."""
    monkeypatch.setattr(native, "_lib", None)
    assert not native.available()
    schema = _schema(3, 2, 4)
    dataset = _dataset(schema, 200, seed=3)
    items = all_items(schema)
    queries = items + generate_candidates(items)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ExactSupportCounter(dataset).supports(queries)
        subset = TransactionBitmaps.from_dataset(dataset).subset_counts([0, 2])
    assert np.array_equal(got, oracle_supports(dataset, queries))
    assert np.array_equal(subset, dataset.subset_counts([0, 2]))


# ----------------------------------------------------------------------
# fused sampling == python sampling, bit for bit
# ----------------------------------------------------------------------


@needs_native
class TestEngineBitIdentity:
    """The fused kernels and the NumPy engine paths are interchangeable."""

    def _engines(self):
        schema = census_schema()
        return [
            GammaDiagonalPerturbation(schema, GAMMA),
            RandomizedGammaDiagonalPerturbation(
                schema, GAMMA, relative_alpha=0.5
            ),
        ]

    def test_perturb_chunk_identical(self, monkeypatch):
        records = generate_census(257, seed=3).records
        for engine in self._engines():
            rng_native = np.random.default_rng(11)
            native_out = engine.perturb_chunk(records, rng_native)
            monkeypatch.setattr(engine_module, "_native_sampler", lambda n: None)
            rng_python = np.random.default_rng(11)
            python_out = engine.perturb_chunk(records, rng_python)
            monkeypatch.undo()
            assert native_out.dtype == python_out.dtype
            assert np.array_equal(native_out, python_out)
            # Both paths must advance the generator identically.
            assert rng_native.random() == rng_python.random()

    def test_perturb_from_uniforms_identical(self, monkeypatch):
        records = generate_census(130, seed=4).records
        for engine in self._engines():
            draws = np.random.default_rng(12).random(
                (records.shape[0], engine.uniform_width)
            )
            native_out = engine.perturb_from_uniforms(records, draws)
            monkeypatch.setattr(engine_module, "_native_sampler", lambda n: None)
            python_out = engine.perturb_from_uniforms(records, draws)
            monkeypatch.undo()
            assert native_out.dtype == python_out.dtype
            assert np.array_equal(native_out, python_out)

    def test_empty_chunk_identical(self):
        empty = generate_census(5, seed=5).records[:0]
        for engine in self._engines():
            out = engine.perturb_chunk(empty, np.random.default_rng(0))
            assert out.shape == empty.shape


# ----------------------------------------------------------------------
# surfacing: service health, runtime estimator, CLI report
# ----------------------------------------------------------------------


class TestBackendSurfacing:
    def _service(self, tmp_path, name):
        schema = census_schema()
        return PerturbationService(
            ServiceConfig(
                schema=schema,
                data_dir=str(tmp_path / name),
                rho1=0.1,
                rho2=rho2_from_gamma(0.1, GAMMA),
                mechanism={"name": "det-gd", "params": {"gamma": GAMMA}},
                seed=1234,
            )
        )

    @pytest.mark.parametrize("backend", KERNELS)
    def test_health_reports_counting_backend(self, tmp_path, backend):
        with kernel_side(backend):
            service = self._service(tmp_path, backend)
            try:
                counting = service.health()["counting"]
            finally:
                service.close()
            info = native.status()
            assert counting == {
                "active_kernel": "native" if info["available"] else "bitmap",
                "native_available": info["available"],
                "forced_python": info["forced_python"],
                "abi": info["abi"],
            }

    def test_estimators_identical_across_backends(self, tmp_path):
        """The service estimator == bitmap-counted inversion, per kernel."""
        data = generate_census(300, seed=7)
        itemsets = [
            Itemset.of((0, 1)),
            Itemset.of((0, 0), (1, 1)),
            Itemset.of((2, 1), (3, 0)),
        ]
        service = self._service(tmp_path, "spool")
        try:
            runtime = service._runtime("acme", "default")
            runtime.spool.append(runtime.stream.perturb_batch(data.records))
            served = runtime.estimator().supports(itemsets)
            spooled = runtime.spool.to_dataset()
            mechanism = runtime.mechanism
        finally:
            service.close()
        bitmaps = TransactionBitmaps.from_dataset(spooled)
        for side in KERNELS:
            with kernel_side(side):
                counted = MarginalInversionEstimator(
                    mechanism, bitmaps.subset_counts, spooled.n_records
                ).supports(itemsets)
            assert np.array_equal(served, counted)

    def test_cli_kernels_report(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        active = "native" if native.available() else "bitmap"
        assert f"active counting kernel  : {active}" in out
        assert "bincount-oracle probe   : ok (identical counts)" in out
        with kernel_side("bitmap"):
            assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "active counting kernel  : bitmap" in out
        assert "bincount-oracle probe   : ok (identical counts)" in out

    def test_cli_kernels_rejects_operands(self):
        with pytest.raises(SystemExit):
            main(["kernels", "spurious"])
