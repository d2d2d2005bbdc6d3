"""Born-rule oracle for the interferometer: the dense analyzer chain and a per-trial sampler.

``experiment.category_probabilities`` is the package's one outcome law, a
closed form.  This module is what it is tested against, and shares no formula
with it:

- the prepared density matrix, built from the one-point doublet
  (1, e^{i phi})/sqrt(2) through ``qubit.reduced_state`` and dephased in the
  sector basis below unit visibility;
- the analyzer chain, a Hadamard on each qubit followed by the computational
  split, as one dense 4x4 matrix, and the Born probabilities it gives;
- a photon-by-photon sampler: phase jitter, the Born outcome, detector
  efficiency and independent dark clicks, then the exactly-one-click
  coincidence policy.  Trials run in chunks of 65536; chunk c draws from
  SeedSequence([seed, c]) in the order phase jitter, outcome, efficiency,
  dark (stream rule v1).
"""

import math

import numpy as np

from extpoincare.doublet import DoubletState, FrequencyGrid
from extpoincare.experiment import ExperimentConfig
from extpoincare.qubit import PAULI_X, reduced_state

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
ANALYZER = np.kron(HADAMARD, HADAMARD)
# the measured observable X x X, dense in the (+H, +V, -H, -V) basis
XX = np.kron(PAULI_X, PAULI_X)

# (x_dir, x_pol) of each detector; transmitted PBS port = +
DETECTORS = {"D1": (1, 1), "D2": (1, -1), "D3": (-1, 1), "D4": (-1, -1)}
OUTCOMES = tuple(DETECTORS.values())

TRIALS_PER_STREAM = 1 << 16

_ONE_POINT = FrequencyGrid(1.0, 2.0, 1)


def prepare_state(phi: float, visibility: float = 1.0) -> np.ndarray:
    """Density matrix after the preparation stage.

    The one-point doublet (1, e^{i phi})/sqrt(2) gives the pure state of
    (1, 0, 0, e^{i phi})/sqrt(2).  Below unit visibility that state is mixed
    with its dephased-in-sector-basis counterpart diag(1/2, 0, 0, 1/2).
    """
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {visibility}")
    pure = reduced_state(DoubletState(_ONE_POINT, [1.0 / math.sqrt(2.0)],
                                      [np.exp(1j * phi) / math.sqrt(2.0)]))
    return visibility * pure + (1.0 - visibility) * np.diag(np.diag(pure))


def born_probabilities(rho: np.ndarray) -> dict[tuple[int, int], float]:
    """Joint X x X outcome probabilities through the analyzer chain.

    The chain applies the direction Hadamard (the recombining beam splitter)
    and the polarization Hadamard (half-wave plate), then reads the
    computational split of the polarizing beam splitters.
    """
    tr = float(np.real(np.trace(rho)))
    if abs(tr - 1.0) > 1e-9:
        raise ValueError(f"state trace deviates from 1 by {abs(tr - 1.0):.3e}")
    diag = np.real(np.diag(ANALYZER @ rho @ ANALYZER.conj().T))
    return {outcome: float(diag[i]) for i, outcome in enumerate(OUTCOMES)}


def correlation_from_probabilities(probs: dict[tuple[int, int], float]) -> float:
    return float(sum(xd * xp * p for (xd, xp), p in probs.items()))


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
