"""Privacy-preserving mining driver (paper Sections 6-7).

One generic driver, :class:`MechanismMiner`, runs the full client/miner
pipeline of *any* registered :class:`~repro.mechanisms.Mechanism`:
perturb the dataset client-side, then mine the perturbed database with
Apriori using the mechanism's support-reconstruction estimator.  The
factory :func:`make_miner` resolves names -- the paper's DET-GD,
RAN-GD, MASK and C&P among them -- through the mechanism registry
(:mod:`repro.mechanisms.registry`).

``mine(dataset, min_support, seed)`` returns an
:class:`~repro.mining.apriori.AprioriResult` over *estimated* supports.
"""

from __future__ import annotations

import functools

from repro.data.dataset import CategoricalDataset
from repro.data.schema import Schema
from repro.mechanisms import registry as mechanism_registry
from repro.mechanisms.base import Mechanism
from repro.mining.apriori import AprioriResult, apriori, generate_candidates
from repro.mining.counting import ExactSupportCounter
from repro.mining.itemsets import Itemset, all_items


def mine_exact(
    dataset: CategoricalDataset, min_support: float, max_length=None
) -> AprioriResult:
    """Reference mining on the original (unperturbed) database."""
    return apriori(
        ExactSupportCounter(dataset), dataset.schema, min_support, max_length
    )


@functools.lru_cache(maxsize=32)
def _level_candidates(previous: tuple, level: tuple) -> tuple:
    """Per-level candidates from the item tuples of true levels k-1, k.

    The join over level ``k-1``, then any true level-``k`` itemset it
    missed (it cannot for exact supports, but stay robust to capped
    references).  Memoised by value, because every cell scored against
    one reference derives the same candidates.
    """
    candidates = generate_candidates([Itemset._trusted(items) for items in previous])
    seen = {its.items for its in candidates}
    missed = (Itemset._trusted(items) for items in level if items not in seen)
    return (*candidates, *missed)


def mine_per_level(
    estimator, schema: Schema, min_support: float, true_result: AprioriResult
) -> AprioriResult:
    """Per-level reconstruction evaluation (the Figures-1/2 protocol).

    At each length ``k`` the candidate set is derived from the *true*
    frequent ``(k-1)``-itemsets (all items at ``k = 1``), and an itemset
    is reported frequent when its *reconstructed* support clears
    ``min_support``.  This measures the reconstruction quality of every
    length in isolation -- which is what the paper's per-length error
    figures plot -- without compounding identification errors through
    Apriori's candidate cascade.  (The cascade protocol, i.e. what a
    deployed miner would do, is each driver's ``mine``; EXPERIMENTS.md
    discusses how the two differ at high perturbation levels.)
    """
    result = AprioriResult(min_support=min_support)
    for length in sorted(true_result.by_length):
        if length == 1:
            candidates = all_items(schema)
        else:
            levels = true_result.by_length
            candidates = _level_candidates(
                tuple(its.items for its in levels.get(length - 1, {})),
                tuple(its.items for its in levels[length]),
            )
        if not candidates:
            continue
        supports = estimator.supports(candidates)
        level = {
            itemset: float(support)
            for itemset, support in zip(candidates, supports)
            if support >= min_support
        }
        if level:
            result.by_length[length] = level
    return result


class MechanismMiner:
    """The generic perturb-reconstruct-mine driver.

    Parameters
    ----------
    mechanism:
        Any :class:`~repro.mechanisms.Mechanism` -- a registered
        built-in, a :class:`~repro.mechanisms.CompositeMechanism`, or a
        user-defined mechanism.  The driver delegates perturbation and
        estimator construction to the mechanism and owns only the
        mining protocol.

    ``workers`` / ``chunk_size`` on the mining methods route
    perturbation through :class:`repro.pipeline.PerturbationPipeline`
    for mechanisms with ``supports_pipeline`` (the gamma-diagonal
    engines and every columnar/composite mechanism); other mechanisms
    reject non-default values.  With ``workers=1`` the chunked
    estimates are bit-identical to the direct path for the same seed
    (see DESIGN.md, "Scaling").
    """

    def __init__(self, mechanism: Mechanism):
        self.mechanism = mechanism
        self.schema = mechanism.schema

    @property
    def name(self) -> str:
        """The mechanism's display name (``DET-GD``, ...)."""
        return self.mechanism.display

    @property
    def gamma(self) -> float:
        """The mechanism's amplification bound."""
        return self.mechanism.amplification()

    @property
    def supports_pipeline(self) -> bool:
        """Whether the chunked/multi-worker execution path exists."""
        return self.mechanism.supports_pipeline

    def perturb(self, dataset: CategoricalDataset, seed=None):
        """Client-side step (exposed for inspection and reuse)."""
        return self.mechanism.perturb(dataset, seed=seed)

    def build_estimator(self, dataset, seed=None, workers: int = 1, chunk_size=None):
        """Perturb and wrap in the mechanism's support estimator.

        ``dataset`` may also be a chunk iterable (e.g.
        :func:`repro.data.io.iter_csv_chunks`) when a pipeline option is
        set; the direct path requires a materialised dataset.
        """
        return self.mechanism.build_estimator(
            dataset, seed=seed, workers=workers, chunk_size=chunk_size
        )

    def mine(
        self,
        dataset: CategoricalDataset,
        min_support: float,
        seed=None,
        max_length=None,
        workers: int = 1,
        chunk_size=None,
    ) -> AprioriResult:
        """Perturb, then Apriori-mine over reconstructed supports."""
        estimator = self.build_estimator(
            dataset, seed=seed, workers=workers, chunk_size=chunk_size
        )
        return apriori(estimator, self.schema, min_support, max_length)

    def mine_per_level(
        self,
        dataset: CategoricalDataset,
        min_support: float,
        true_result,
        seed=None,
        workers: int = 1,
        chunk_size=None,
    ) -> AprioriResult:
        """Per-level evaluation protocol (see :func:`mine_per_level`)."""
        estimator = self.build_estimator(
            dataset, seed=seed, workers=workers, chunk_size=chunk_size
        )
        return mine_per_level(estimator, self.schema, min_support, true_result)


def make_miner(name: str, schema: Schema, gamma: float, **kwargs) -> MechanismMiner:
    """Factory mapping registered mechanism names to driver instances.

    ``name`` is resolved through the mechanism registry
    (case-insensitive; aliases like ``cp`` / ``cut-and-paste`` and
    display names are accepted), so every mechanism registered with
    :func:`repro.mechanisms.register` is constructible here.  Unknown
    names raise :class:`~repro.exceptions.UnknownMechanismError`
    listing the registered mechanisms.
    """
    entry = mechanism_registry.get(name)
    # Mechanisms not parameterised by gamma (e.g. additive noise) skip
    # it; factories with a **kwargs catch-all receive it.
    if mechanism_registry.factory_accepts(entry.factory, "gamma"):
        kwargs.setdefault("gamma", gamma)
    return MechanismMiner(mechanism_registry.create(entry.key, schema, **kwargs))
