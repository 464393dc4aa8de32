"""Wide-schema (matrix-free) reconstruction benchmarks.

A 50-attribute, cardinality-4 composite has a joint domain of
``4**50 ~ 1.3e30`` cells: no joint matrix, no joint count vector, no
joint-index encoding can exist for it.  This file times the implicit
path end to end -- perturb through the streaming pipeline, accumulate
packed transaction bitmaps, reconstruct supports by solving the
composite's Kronecker marginal operators -- and gates its memory claim:

* ``test_wide_estimator_g{12,25,50}`` -- build-estimator + singleton
  reconstruction at increasing group counts (every one of them already
  beyond the dense joint-count route, whose vector alone would need
  ``8 * 4**g`` bytes);
* ``test_peak_rss_linear_in_group_count`` -- the headline claim: peak
  RSS grows ~linearly with the number of attribute groups (generous 3x
  slack) even though the joint domain grows as ``4**g``, and the
  widest run stays far below what materialising even the *smallest*
  group count's joint counts would take;
* ``test_wide_end_to_end_mining`` -- the full perturb -> reconstruct ->
  mine protocol on the 50-attribute schema.

Record counts honour ``$REPRO_SCALE`` (1e6 records at scale 1, matching
the committed ``BENCH_wide_schema.json`` baseline's CI scale of 0.1).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.data.dataset import CategoricalDataset
from repro.data.schema import Attribute, Schema
from repro.experiments.config import dataset_scale
from repro.mechanisms import CompositeMechanism
from repro.mining.itemsets import Itemset, all_items

from conftest import peak_rss_bytes, reset_peak_rss

N_RECORDS = max(10_000, int(1_000_000 * dataset_scale()))
CARDINALITY = 4
GROUP_COUNTS = (12, 25, 50)
GAMMA = 150.0
SEED = 7
WORKERS = min(2, os.cpu_count() or 1)
CHUNK_SIZE = max(1, N_RECORDS // 16)


def _wide_schema(n_groups: int) -> Schema:
    return Schema(
        [
            Attribute(f"a{i}", [f"c{j}" for j in range(CARDINALITY)])
            for i in range(n_groups)
        ]
    )


def _wide_composite(schema: Schema) -> CompositeMechanism:
    return CompositeMechanism.build(
        schema,
        [
            {"name": "det-gd", "n_attributes": 1, "params": {"gamma": GAMMA}}
            for _ in range(schema.n_attributes)
        ],
    )


def _wide_dataset(schema: Schema) -> CategoricalDataset:
    rng = np.random.default_rng(77)
    records = rng.integers(
        0, CARDINALITY, size=(N_RECORDS, schema.n_attributes)
    )
    # Plant a frequent cross-attribute pattern for the mining benchmark.
    records[: N_RECORDS // 2, 0] = 0
    records[: N_RECORDS // 2, schema.n_attributes - 1] = 2
    return CategoricalDataset(schema, records)


def _reconstruct_singletons(composite, dataset) -> np.ndarray:
    """The benchmarked unit: pipeline-perturb, pack, invert marginals."""
    estimator = composite.build_estimator(
        dataset, seed=SEED, workers=WORKERS, chunk_size=CHUNK_SIZE
    )
    return estimator.supports(all_items(dataset.schema))


def _run_group_count(n_groups: int) -> np.ndarray:
    schema = _wide_schema(n_groups)
    return _reconstruct_singletons(_wide_composite(schema), _wide_dataset(schema))


@pytest.mark.parametrize("n_groups", GROUP_COUNTS)
def test_wide_estimator(benchmark, n_groups):
    supports = benchmark.pedantic(
        _run_group_count, args=(n_groups,), rounds=1, iterations=1
    )
    assert supports.shape == (CARDINALITY * n_groups,)
    # The planted pattern's singleton must reconstruct near its true
    # ~0.625 support; unplanted cells sit near uniform 0.25.
    assert abs(supports[0] - 0.625) < 0.05
    assert np.all(np.isfinite(supports))


def test_peak_rss_linear_in_group_count(report):
    """Peak RSS grows ~linearly in the group count, not in ``4**g``.

    Each group count runs in this process after a kernel peak-RSS
    reset; the growth over the pre-run footprint is the run's own
    high-water mark.  The gate allows a generous 3x over the linear
    extrapolation from the smallest group count (plus a small additive
    floor for allocator noise) -- anything materialising per-joint-cell
    state would blow through it by orders of magnitude.
    """
    nets = {}
    rows = [f"{'groups':<8} {'joint domain':>14} {'net peak RSS':>14}"]
    for n_groups in GROUP_COUNTS:
        reset_peak_rss()
        before = peak_rss_bytes()
        supports = _run_group_count(n_groups)
        assert np.all(np.isfinite(supports))
        nets[n_groups] = max(1, peak_rss_bytes() - before)
        rows.append(
            f"{n_groups:<8} {f'4**{n_groups}':>14} {nets[n_groups]:>14,}"
        )
    smallest = GROUP_COUNTS[0]
    floor = 64 * 1024 * 1024
    for n_groups in GROUP_COUNTS[1:]:
        linear = nets[smallest] * (n_groups / smallest)
        assert nets[n_groups] <= 3.0 * linear + floor, (
            f"peak RSS at {n_groups} groups ({nets[n_groups]:,}B) is not "
            f"~linear in the group count (linear model from {smallest} "
            f"groups: {linear:,.0f}B)"
        )
    # And the widest run must be nowhere near even the *narrowest*
    # group count's dense joint-count vector (8 * 4**12 bytes), let
    # alone its own 4**50 domain.
    assert nets[GROUP_COUNTS[-1]] < 8 * CARDINALITY**smallest
    rows.append(
        f"linear gate: net({GROUP_COUNTS[-1]}) <= "
        f"3x linear extrapolation from net({smallest})"
    )
    report("wide_schema_rss", "\n".join(rows))


def test_wide_end_to_end_mining(benchmark):
    """Perturb -> reconstruct -> mine the 50-attribute composite."""
    from repro.mining.reconstructing import MechanismMiner

    schema = _wide_schema(GROUP_COUNTS[-1])
    composite = _wide_composite(schema)
    dataset = _wide_dataset(schema)
    miner = MechanismMiner(composite)

    def _mine():
        return miner.mine(
            dataset,
            min_support=0.3,
            seed=SEED,
            workers=WORKERS,
            chunk_size=CHUNK_SIZE,
        )

    result = benchmark.pedantic(_mine, rounds=1, iterations=1)
    frequent_1 = result.by_length.get(1, {})
    assert Itemset.of((0, 0)) in frequent_1
    assert Itemset.of((schema.n_attributes - 1, 2)) in frequent_1
    assert Itemset.of((0, 0), (schema.n_attributes - 1, 2)) in result.by_length.get(
        2, {}
    )
