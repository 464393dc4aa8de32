"""Privacy-preserving classification: the paper's future-work task.

Trains a naive-Bayes predictor of self-reported health status on the
HEALTH database in two ways:

* exactly, on the raw records (what a miner with full access gets);
* privately, on records perturbed with the gamma-diagonal matrix --
  the classifier sees only reconstructed (class, attribute) marginals.

Sweeps the privacy knob gamma to show the accuracy/privacy frontier.

Run:  python examples/private_classifier.py [n_train]
"""

import sys

from repro.core.privacy import rho2_from_gamma
from repro.experiments import DatasetSpec, classification_sweep


def main() -> None:
    n_train = int(sys.argv[1]) if len(sys.argv) > 1 else 60_000
    train = DatasetSpec.from_name("HEALTH", n_train, seed=21)
    test = DatasetSpec.from_name("HEALTH", 15_000, seed=22)

    gammas = (9.0, 19.0, 49.0, 99.0, 499.0)
    series = classification_sweep(train, test, "HEALTH", gammas=gammas, seed=23)

    exact = next(iter(series["exact"].values()))
    majority = next(iter(series["majority"].values()))
    print(
        f"predicting HEALTH status from {train.schema().n_attributes - 1} attributes"
    )
    print(f"exact naive Bayes accuracy:    {exact:.1%}")
    print(f"majority-class baseline:       {majority:.1%}\n")

    print(f"{'gamma':>7} {'worst posterior from 5% prior':>30} {'private accuracy':>17}")
    for gamma in gammas:
        breach = rho2_from_gamma(0.05, gamma)
        print(f"{gamma:>7.0f} {breach:>29.1%} {series['private'][gamma]:>16.1%}")

    print(
        "\nreading: at the paper's gamma=19 the 7500-cell HEALTH domain leaves"
        "\ntoo little per-pair signal for the classifier; loosening privacy"
        "\n(larger gamma) recovers the exact accuracy. On compact schemas the"
        "\nprivate classifier matches the exact one already at gamma=19"
        "\n(see tests/test_classify.py)."
    )


if __name__ == "__main__":
    main()
