#!/usr/bin/env python3
"""Scan visibility, phase noise and dark counts; compare estimates to predictions.

Visibility and phase noise attenuate the correlation multiplicatively.  Dark
counts only matter once photons can be lost: at unit efficiency a lone dark
click can never fake a coincidence, so the scan runs below unit efficiency.
"""

import argparse

from extpoincare import experiment


def run(phi, trials, seed, **kwargs):
    config = experiment.ExperimentConfig(phi, trials=trials, seed=seed, **kwargs)
    tally = experiment.run_trials(config)
    return experiment.estimate_exx(tally)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--phi", type=float, default=0.0)
    parser.add_argument("--trials", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"phi = {args.phi}, {args.trials} trials per setting\n")

    print("visibility scan (eta=1, no noise):")
    for v in (1.0, 0.9, 0.7, 0.5):
        e, se = run(args.phi, args.trials, args.seed, visibility=v)
        pred = experiment.expected_correlation(args.phi, v, 0.0)
        print(f"  v={v:4.2f}   E={e:+.4f} +- {se:.4f}   predicted {pred:+.4f}")

    print("phase noise scan (eta=1, v=1):")
    for sigma in (0.0, 0.3, 0.6, 1.0):
        e, se = run(args.phi, args.trials, args.seed, sigma=sigma)
        pred = experiment.expected_correlation(args.phi, 1.0, sigma)
        print(f"  sigma={sigma:4.2f}   E={e:+.4f} +- {se:.4f}   predicted {pred:+.4f}")

    print("dark count scan (eta=0.9, v=1):")
    for dark in (0.0, 0.005, 0.02, 0.05):
        e, se = run(args.phi, args.trials, args.seed, eta=0.9, dark=dark)
        pred = experiment.expected_correlation(args.phi, 1.0, 0.0, eta=0.9, dark=dark)
        print(f"  dark={dark:5.3f}   E={e:+.4f} +- {se:.4f}   diluted prediction {pred:+.4f}")


if __name__ == "__main__":
    main()
