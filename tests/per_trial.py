"""Per-trial interferometer sampler: the reference the multinomial draw is tested against.

Every trial is simulated photon by photon: phase jitter, the Born outcome
through the analyzer matrix, detector efficiency and independent dark clicks,
then the exactly-one-click coincidence policy.  It shares no formula with
``experiment.category_probabilities``, which is what makes it an oracle.
Trials run in chunks of 65536; chunk c draws from
SeedSequence([seed, c]) in the order phase jitter, outcome, efficiency, dark
(stream rule v1).
"""

import math

import numpy as np

from extpoincare.experiment import ANALYZER, ExperimentConfig

TRIALS_PER_STREAM = 1 << 16


def _dephased_chain_probs() -> np.ndarray:
    rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    return np.real(np.diag(ANALYZER @ rho @ ANALYZER.conj().T))


def run_chunk(config: ExperimentConfig, chunk: int, n: int) -> np.ndarray:
    """Counts of a lone click at D1..D4 and of discarded trials in one chunk."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed & (2 ** 64 - 1), chunk]))
    phis = config.phi + config.sigma * rng.standard_normal(n)

    # per-trial pure amplitudes through the analyzer, one matmul for the chunk
    amps = np.zeros((n, 4), dtype=complex)
    amps[:, 0] = 1.0 / math.sqrt(2.0)
    amps[:, 3] = np.exp(1j * phis) / math.sqrt(2.0)
    pure = np.abs(amps @ ANALYZER.T) ** 2
    probs = config.visibility * pure + (1.0 - config.visibility) * _dephased_chain_probs()

    cumulative = np.cumsum(probs, axis=1)
    u = rng.random(n)
    outcome = (u[:, None] > cumulative).sum(axis=1)
    outcome = np.minimum(outcome, 3)  # guard rounding at the top of the cdf

    detected = rng.random(n) < config.eta
    clicks = rng.random((n, 4)) < config.dark
    clicks[np.arange(n), outcome] |= detected

    n_clicks = clicks.sum(axis=1)
    single = n_clicks == 1
    fired = np.argmax(clicks[single], axis=1)
    per_outcome = np.bincount(fired, minlength=4)
    return np.append(per_outcome, n - single.sum())


def per_trial_counts(config: ExperimentConfig) -> np.ndarray:
    """Counts over all ``config.trials`` trials, in ``category_probabilities`` order."""
    total = np.zeros(5, dtype=np.int64)
    chunk, remaining = 0, config.trials
    while remaining > 0:
        n = min(TRIALS_PER_STREAM, remaining)
        total += run_chunk(config, chunk, n)
        chunk, remaining = chunk + 1, remaining - n
    return total
