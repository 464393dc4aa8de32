"""Ablation: perturbation-sampler throughput (DESIGN.md, Section 5).

Compares the two gamma-diagonal samplers on the same records:

* ``vectorized`` -- the O(1)-per-record joint-index sampler (what
  experiments use);
* ``dense``  -- the naive matrix sampler the paper opens Section 5
  with, cost proportional to ``|S_U|`` (only feasible on small scales).

Also times the baseline operators (MASK bit-flipping, C&P) for
context.  All samplers realise the same distribution (tests assert
that); this bench quantifies the speed gap that motivates Section 5.
"""

import numpy as np
import pytest

from repro.baselines.cut_and_paste import CutAndPastePerturbation
from repro.baselines.mask import MaskPerturbation
from repro.core.engine import GammaDiagonalPerturbation, MatrixPerturbation
from repro.core.gamma_diagonal import GammaDiagonalMatrix
from repro.data.census import generate_census
from repro.experiments.config import dataset_scale

#: Small enough that the naive dense sampler is still tractable; the
#: size honours ``$REPRO_SCALE`` like every other benchmark, so the CI
#: smoke pass covers this file too.
N_RECORDS = max(1_000, int(5_000 * dataset_scale()))
GAMMA = 19.0

#: The per-record-cost dense sampler runs on a subsample.
N_SLOW_RECORDS = min(500, N_RECORDS)


@pytest.fixture(scope="module")
def records():
    return generate_census(N_RECORDS, seed=77)


def test_perturb_vectorized(benchmark, records):
    engine = GammaDiagonalPerturbation(records.schema, GAMMA)
    result = benchmark(engine.perturb, records, 0)
    assert result.n_records == N_RECORDS


def test_perturb_dense_naive(benchmark, records):
    dense = GammaDiagonalMatrix(records.schema.joint_size, GAMMA).to_dense()
    engine = MatrixPerturbation(records.schema, dense)
    small = records.sample(N_SLOW_RECORDS, np.random.default_rng(0))
    result = benchmark.pedantic(engine.perturb, args=(small, 0), rounds=3, iterations=1)
    assert result.n_records == N_SLOW_RECORDS


def test_perturb_mask(benchmark, records):
    operator = MaskPerturbation.for_gamma(records.schema, GAMMA)
    bits = benchmark(operator.perturb, records, 0)
    assert bits.shape[0] == N_RECORDS


def test_perturb_cut_and_paste(benchmark, records):
    operator = CutAndPastePerturbation.for_gamma(records.schema, GAMMA)
    bits = benchmark(operator.perturb, records, 0)
    assert bits.shape[0] == N_RECORDS
