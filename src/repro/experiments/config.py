"""Experiment configuration and the paper's default parameters.

Section 7's setup: privacy requirement ``(rho1, rho2) = (5%, 50%)``
(hence ``gamma = 19``), ``supmin = 2%``, mechanisms DET-GD / RAN-GD /
MASK / C&P, RAN-GD shown at ``alpha = gamma*x/2``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.core.privacy import gamma_from_rho
from repro.exceptions import ExperimentError
from repro.mechanisms.registry import paper_mechanisms

#: The paper's privacy requirement and its implied amplification bound.
PAPER_RHO1 = 0.05
PAPER_RHO2 = 0.50
PAPER_GAMMA = gamma_from_rho(PAPER_RHO1, PAPER_RHO2)  # = 19

#: The paper's support threshold.
PAPER_MIN_SUPPORT = 0.02

#: RAN-GD randomization used in Figures 1-2: ``alpha = gamma*x/2``.
PAPER_RELATIVE_ALPHA = 0.5

#: The config knobs a mechanism named by string may take; each gets
#: the ones its factory accepts (:func:`repro.mechanisms.resolve`).
MECHANISM_KNOBS = ("gamma", "relative_alpha", "max_cut")

#: The four mechanisms of the paper's comparison, in plot order --
#: sourced from the mechanism registry's metadata, the single place
#: display names and plot order live.
PAPER_MECHANISMS = paper_mechanisms()


def dataset_scale() -> float:
    """Global dataset-size multiplier from ``$REPRO_SCALE``.

    Benchmarks honour this so the full harness can be smoke-run quickly
    (e.g. ``REPRO_SCALE=0.1``) without touching code.  Values are
    clamped to (0, 1].
    """
    raw = os.environ.get("REPRO_SCALE", "1")
    try:
        scale = float(raw)
    except ValueError:
        raise ExperimentError(f"REPRO_SCALE must be a float, got {raw!r}") from None
    if not 0.0 < scale <= 1.0:
        raise ExperimentError(f"REPRO_SCALE must lie in (0, 1], got {scale}")
    return scale


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for one comparison experiment.

    Defaults reproduce the paper's Section-7 setup exactly.  Dataset
    sizes are not a knob here: each artefact takes ``n_records=``.
    """

    gamma: float = PAPER_GAMMA
    min_support: float = PAPER_MIN_SUPPORT
    relative_alpha: float = PAPER_RELATIVE_ALPHA
    max_cut: int = 3
    mechanisms: tuple[str, ...] = PAPER_MECHANISMS
    seed: int = 20050405
    #: ``"per-level"`` scores each itemset length against candidates
    #: derived from the true previous level (what the paper's per-length
    #: figures plot); ``"apriori"`` runs the deployable cascade where
    #: identification errors compound across levels.
    protocol: str = "per-level"
    #: Chunked/multi-worker execution of the gamma-diagonal mechanisms
    #: (see DESIGN.md, "Scaling").  ``workers=1`` with ``chunk_size``
    #: unset is the direct one-shot path; any other combination routes
    #: DET-GD/RAN-GD through :class:`repro.pipeline.PerturbationPipeline`
    #: (MASK and C&P always run direct).
    workers: int = 1
    chunk_size: int | None = None

    def __post_init__(self):
        if self.gamma <= 1.0:
            raise ExperimentError(f"gamma must exceed 1, got {self.gamma}")
        if not 0.0 < self.min_support <= 1.0:
            raise ExperimentError(
                f"min_support must lie in (0, 1], got {self.min_support}"
            )
        if not 0.0 <= self.relative_alpha <= 1.0:
            raise ExperimentError(
                f"relative_alpha must lie in [0, 1], got {self.relative_alpha}"
            )
        if self.protocol not in ("per-level", "apriori"):
            raise ExperimentError(
                f"protocol must be 'per-level' or 'apriori', got {self.protocol!r}"
            )
        if self.workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {self.workers}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ExperimentError(
                f"chunk_size must be >= 1 (or None), got {self.chunk_size}"
            )

    def mechanism_defaults(self) -> dict:
        """This config's :data:`MECHANISM_KNOBS`, by name.

        A mechanism named by string is built with the ones its factory
        accepts, and its cells key on them.
        """
        return {knob: getattr(self, knob) for knob in MECHANISM_KNOBS}
