"""RAN-GD's privacy/accuracy trade-off: the paper's Figure 3 story.

Sweeps the randomization knob alpha/(gamma x) from 0 (deterministic
DET-GD) to 1 and shows, side by side:

* the posterior-probability *range* the miner can determine -- the
  privacy win (the determinable worst-case breach falls from 50%
  towards 0); and
* the support error of RAN-GD mining at itemset length 4 -- the
  accuracy cost (barely moves).

Run:  python examples/privacy_accuracy_tradeoff.py [n_records]
"""

import sys

from repro import generate_census
from repro.core import RandomizedGammaDiagonal
from repro.experiments import ExperimentConfig, figure3_support_error


def main() -> None:
    n_records = int(sys.argv[1]) if len(sys.argv) > 1 else 25_000
    gamma, prior = 19.0, 0.05
    n = generate_census(10).schema.joint_size  # |S_U| = 2000 for CENSUS

    alphas = [0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0]

    print(f"gamma = {gamma:g}, prior P(Q) = {prior:.0%}, |S_U| = {n}\n")
    print("privacy: worst-case posterior the miner can determine")
    print(f"{'alpha/(gamma x)':>16} {'rho2(-a)':>9} {'rho2(0)':>9} {'rho2(+a)':>9}")
    for rel in alphas:
        randomized = RandomizedGammaDiagonal.from_relative_alpha(n, gamma, rel)
        lo, mid, hi = randomized.posterior_range(prior)
        print(f"{rel:>16.1f} {lo:>9.1%} {mid:>9.1%} {hi:>9.1%}")
    print(
        "\n(at alpha = gamma*x/2 the determinable breach drops to ~33% versus\n"
        " DET-GD's 50% -- the paper's Section 4.1 example.)\n"
    )

    print("accuracy: RAN-GD support error at itemset length 4 on CENSUS")
    config = ExperimentConfig(seed=7)
    series = figure3_support_error(
        "CENSUS", length=4, alphas=alphas, config=config, n_records=n_records
    )
    print(f"{'alpha/(gamma x)':>16} {'RAN-GD rho':>11} {'DET-GD rho':>11}")
    for rel in alphas:
        print(
            f"{rel:>16.1f} {series['RAN-GD'][rel]:>10.1f}% {series['DET-GD'][rel]:>10.1f}%"
        )
    print(
        "\nreading: the error stays in the same band across the whole sweep --\n"
        "substantial privacy gain at marginal accuracy cost (paper Section 4.2)."
    )


if __name__ == "__main__":
    main()
