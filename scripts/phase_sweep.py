#!/usr/bin/env python3
"""Sweep the preparation phase, fit the cosine amplitude and write the CSV.

The sign of the fitted correlation at phi = 0 versus phi = pi is the
observable the whole setup exists for; the fitted amplitude should track
visibility * exp(-sigma^2/2), diluted by dark counts when eta < 1.
"""

import argparse

import numpy as np

from extpoincare import __version__, experiment


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=17)
    parser.add_argument("--trials", type=int, default=50_000)
    parser.add_argument("--visibility", type=float, default=1.0)
    parser.add_argument("--sigma", type=float, default=0.0)
    parser.add_argument("--eta", type=float, default=1.0)
    parser.add_argument("--dark", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="phase_sweep.csv")
    args = parser.parse_args()

    config = experiment.ExperimentConfig(
        0.0, visibility=args.visibility, eta=args.eta, dark=args.dark,
        sigma=args.sigma, trials=args.trials, seed=args.seed)
    phis = np.linspace(0.0, 2 * np.pi, args.points)
    rows = experiment.sweep_phase(phis, config)

    experiment.write_sweep_csv(rows, args.out)
    manifest = experiment.run_manifest("scripts/phase_sweep.py", config, 1, __version__)
    experiment.write_manifest(manifest, args.out + ".manifest.json")

    amplitude, stderr = experiment.fit_cosine(rows)
    predicted = experiment.expected_correlation(0.0, args.visibility, args.sigma,
                                                args.eta, args.dark)
    print(f"wrote {args.out} ({args.points} points x {args.trials} trials)")
    print(f"fitted amplitude  {amplitude:+.5f} +- {stderr:.5f}")
    print(f"predicted         {predicted:+.5f}")
    e0, epi = rows[0].e_xx, rows[args.points // 2].e_xx
    print(f"E at phi=0: {e0:+.4f}   E at phi=pi: {epi:+.4f}   sign flip: {e0 * epi < 0}")


if __name__ == "__main__":
    main()
