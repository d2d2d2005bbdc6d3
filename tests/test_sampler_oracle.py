"""The multinomial draw against the per-trial reference sampler.

Each test compares the two samplers' category counts at fixed seeds with a
chi-square test of homogeneity.  The threshold is the 0.999 quantile of the
chi-square law at the test's degrees of freedom (p = 1e-3), fixed before the
counts were looked at.
"""

import numpy as np

from extpoincare.experiment import ExperimentConfig, run_trials

from per_trial import per_trial_counts

CHI2_999 = {3: 16.266, 4: 18.467}
TRIALS = 1_000_000


def _multinomial_counts(config: ExperimentConfig) -> np.ndarray:
    tally = run_trials(config)
    return np.append(tally.counts, tally.discarded)


def _homogeneity_chi2(a: np.ndarray, b: np.ndarray) -> tuple[float, int]:
    """Chi-square of two samples over the categories either of them hit, and its dof."""
    table = np.array([a, b], dtype=float)
    table = table[:, table.sum(axis=0) > 0]
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    return float(((table - expected) ** 2 / expected).sum()), table.shape[1] - 1


def test_multinomial_matches_per_trial_sampler_with_every_imperfection():
    config = ExperimentConfig(1.1, visibility=0.9, eta=0.5, dark=0.05, sigma=0.2,
                              trials=TRIALS, seed=2025)
    chi2, dof = _homogeneity_chi2(_multinomial_counts(config), per_trial_counts(config))
    assert dof == 4
    assert chi2 < CHI2_999[dof], chi2


def test_multinomial_matches_per_trial_sampler_ideal():
    # eta = 1 and no dark counts: nothing is discarded, four categories remain
    config = ExperimentConfig(1.1, trials=TRIALS, seed=2025)
    chi2, dof = _homogeneity_chi2(_multinomial_counts(config), per_trial_counts(config))
    assert dof == 3
    assert chi2 < CHI2_999[dof], chi2
