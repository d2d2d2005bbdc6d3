"""Monte Carlo of the single-photon correlation interferometer.

The prepared state is (|+>|H> + e^{i phi} |->|V>)/sqrt(2): a superposition of
counterpropagating modes tagged by orthogonal polarizations.  The analyzer
chain measures X on both qubits: a 50:50 beam splitter recombines the two
directions (Hadamard on the direction qubit), a half-wave plate at 45 degrees
followed by a polarizing beam splitter resolves the X polarization basis in
each output port, and four detectors record the joint outcome.

Detector dictionary (transmitted PBS port = +):

    D1 -> (+,+)   D2 -> (+,-)   D3 -> (-,+)   D4 -> (-,-)

Imperfections: visibility v mixes the pure state with its sector-basis
dephased counterpart; phase noise adds Gaussian jitter to phi per trial;
detector efficiency drops the photon click with probability 1-eta; dark
counts fire each detector independently per trial.  Coincidence policy:
trials with exactly one click are kept (the clicked detector fixes both
outcomes), everything else is discarded.  No recovery heuristics.

Sampling: trials are independent and identically distributed, so each one
falls into one of five categories, a lone click at D1..D4 or discarded, with
probabilities known in closed form (``category_probabilities``).  A whole
point is one multinomial draw of its trial count over those categories.

Reproducibility (stream rule v2): sweep point j, and point 0 for a single
run, draws that multinomial from numpy's PCG64 seeded with
SeedSequence(seed, spawn_key=(j,)).  Spawn keys give every (seed, point)
pair its own stream, so no two runs or sweep points share samples.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import Iterable, Sequence

import numpy as np

from .qubit import TwoQubitState

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
ANALYZER = np.kron(HADAMARD, HADAMARD)

OUTCOMES = ((1, 1), (1, -1), (-1, 1), (-1, -1))
DETECTORS = {"D1": (1, 1), "D2": (1, -1), "D3": (-1, 1), "D4": (-1, -1)}
# x_dir * x_pol of each outcome: the sign a click at that detector adds to E_XX
SIGNS = np.array([xd * xp for xd, xp in OUTCOMES], dtype=float)

CSV_COLUMNS = ("phi_rad", "trials", "kept", "discarded",
               "n_pp", "n_pm", "n_mp", "n_mm", "e_xx", "stderr", "expected")

STREAM_VERSION = 2
STREAM_RULE = ("stream v2: sweep point j (0 for a single run) draws "
               "numpy default_rng(SeedSequence(seed, spawn_key=(j,))).multinomial(trials, p), "
               "p the closed-form probabilities of a lone click at D1, D2, D3, D4 "
               "and of a discarded trial, in that order")


@dataclass(frozen=True)
class ExperimentConfig:
    """Interferometer run parameters.

    phi: preparation phase (rad).  visibility: contrast in [0, 1].
    eta: detector efficiency in [0, 1], uniform over the four detectors.
    dark: per-detector dark click probability per trial, in [0, 1).
    sigma: phase jitter standard deviation (rad).  trials: count in [1, 2**63).
    seed: stream seed in [0, 2**64).  Every real field must be finite, and
    bools are rejected where a number is expected.
    """

    phi: float
    visibility: float = 1.0
    eta: float = 1.0
    dark: float = 0.0
    sigma: float = 0.0
    trials: int = 100_000
    seed: int = 0

    def __post_init__(self):
        for name in ("phi", "visibility", "eta", "dark", "sigma"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        for name in ("trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must be in [0, 1], got {self.visibility}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")
        if not 0.0 <= self.dark < 1.0:
            raise ValueError(f"dark must be in [0, 1), got {self.dark}")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        if not 1 <= self.trials < 2 ** 63:
            raise ValueError(f"trials must be in [1, 2**63), got {self.trials}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")


@dataclass
class TrialTally:
    """Joint click counts per (x_dir, x_pol) outcome plus discarded trials."""

    counts: dict[tuple[int, int], int] = field(
        default_factory=lambda: {o: 0 for o in OUTCOMES})
    discarded: int = 0

    @property
    def kept(self) -> int:
        return sum(self.counts.values())

    @property
    def trials(self) -> int:
        return self.kept + self.discarded


def prepare_state(phi: float, visibility: float = 1.0):
    """State after the preparation stage.

    Unit visibility gives the pure state with amplitudes
    (1, 0, 0, e^{i phi})/sqrt(2).  Below unit visibility the return value is a
    4x4 density matrix, the convex mix of that state with its dephased-in-
    sector-basis counterpart diag(1/2, 0, 0, 1/2).
    """
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {visibility}")
    amps = np.array([1.0, 0.0, 0.0, np.exp(1j * phi)]) / math.sqrt(2.0)
    if visibility == 1.0:
        return TwoQubitState(amps)
    pure = np.outer(amps, amps.conj())
    dephased = np.diag(np.diag(pure))
    return visibility * pure + (1.0 - visibility) * dephased


def _as_density(state) -> np.ndarray:
    if isinstance(state, TwoQubitState):
        return state.density()
    rho = np.asarray(state, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a TwoQubitState or 4x4 density matrix, got shape {rho.shape}")
    return rho


def born_probabilities(state) -> dict[tuple[int, int], float]:
    """Joint X x X outcome probabilities through the analyzer chain.

    The chain applies the direction Hadamard (the recombining beam splitter)
    and the polarization Hadamard (half-wave plate), then reads the
    computational split of the polarizing beam splitters.
    """
    rho = _as_density(state)
    tr = float(np.real(np.trace(rho)))
    if abs(tr - 1.0) > 1e-9:
        raise ValueError(f"state trace deviates from 1 by {abs(tr - 1.0):.3e}")
    diag = np.real(np.diag(ANALYZER @ rho @ ANALYZER.conj().T))
    return {outcome: float(diag[i]) for i, outcome in enumerate(OUTCOMES)}


def correlation_from_probabilities(probs: dict[tuple[int, int], float]) -> float:
    return float(sum(xd * xp * p for (xd, xp), p in probs.items()))


def category_probabilities(config: ExperimentConfig) -> np.ndarray:
    """Probabilities of the five trial categories: a lone click at D1..D4, then discarded.

    Averaging the Born weights over the Gaussian phase jitter gives
    q_j = (1 + s_j V cos phi)/4 with s_j the detector's sign in ``SIGNS`` and
    V = v exp(-sigma^2/2).  The photon clicks its detector with probability
    eta and each detector fires a dark click with probability d, all
    independently, so detector j clicks alone with probability
    (1-d)^3 (eta q_j + (1-eta) d).  Every other trial ends with no click or
    several and is discarded.  ``config.phi`` is the phase used; trials and
    seed are ignored.
    """
    v = config.visibility * math.exp(-0.5 * config.sigma * config.sigma)
    q = (1.0 + SIGNS * (v * math.cos(config.phi))) / 4.0
    lone = (1.0 - config.dark) ** 3 * (config.eta * q + (1.0 - config.eta) * config.dark)
    return np.append(lone, max(0.0, 1.0 - float(lone.sum())))


def expected_correlation(phi: float, visibility: float = 1.0, sigma: float = 0.0,
                         eta: float = 1.0, dark: float = 0.0) -> float | None:
    """E_XX over kept trials, the value the sampler converges to.

    The signed sum of the four lone-click probabilities over their total.
    Without dark counts this is v exp(-sigma^2/2) cos(phi) for any eta; dark
    clicks after photon loss dilute it to eta V cos(phi) / (eta + 4 (1-eta) d).
    Returns None when no trial is ever kept (eta = dark = 0).
    """
    config = ExperimentConfig(phi, visibility=visibility, eta=eta, dark=dark, sigma=sigma)
    lone = category_probabilities(config)[:4]
    total = float(lone.sum())
    if total == 0.0:
        return None
    return float(SIGNS @ lone) / total


def point_seed(seed: int, point: int) -> np.random.SeedSequence:
    """Seed sequence of sweep point ``point`` under master ``seed`` (stream rule v2)."""
    return np.random.SeedSequence(seed, spawn_key=(point,))


def run_trials(config: ExperimentConfig, point: int = 0) -> TrialTally:
    """Tally ``config.trials`` trials as one multinomial draw on the point's stream.

    Deterministic for a fixed config and point; ``experiment run`` is point 0.
    """
    rng = np.random.default_rng(point_seed(config.seed, point))
    n = rng.multinomial(config.trials, category_probabilities(config))
    return TrialTally(dict(zip(OUTCOMES, map(int, n[:4]))), discarded=int(n[4]))


def estimate_exx(tally: TrialTally) -> tuple[float, float]:
    """Correlation estimate sum(x_d x_p n)/sum(n) and its binomial standard error."""
    kept = tally.kept
    if kept == 0:
        raise ValueError(
            f"cannot estimate a correlation from an all-discarded tally "
            f"({tally.discarded} trials discarded, 0 kept)")
    e = sum(xd * xp * n for (xd, xp), n in tally.counts.items()) / kept
    stderr = math.sqrt(max(1.0 - e * e, 0.0) / kept)
    return float(e), float(stderr)


@dataclass(frozen=True)
class SweepRow:
    phi: float
    tally: TrialTally
    e_xx: float | None
    stderr: float | None
    expected: float | None


def sweep_phase(phis: Sequence[float], config: ExperimentConfig) -> list[SweepRow]:
    """Run one tally per phase, point j on its own stream."""
    if len(phis) == 0:
        raise ValueError("phase sweep needs at least one point")
    rows = []
    for j, phi in enumerate(phis):
        cfg = replace(config, phi=float(phi))
        tally = run_trials(cfg, point=j)
        if tally.kept > 0:
            e, stderr = estimate_exx(tally)
        else:
            e, stderr = None, None
        rows.append(SweepRow(cfg.phi, tally, e, stderr,
                             expected_correlation(cfg.phi, cfg.visibility, cfg.sigma,
                                                  cfg.eta, cfg.dark)))
    return rows


def fit_cosine(rows: Iterable[SweepRow]) -> tuple[float, float]:
    """Least-squares amplitude A of e_xx = A cos(phi) and its standard error.

    Rows without an estimate (every trial discarded) are left out.
    """
    fitted = [r for r in rows if r.e_xx is not None]
    c = np.array([np.cos(r.phi) for r in fitted])
    e = np.array([r.e_xx for r in fitted])
    var = np.array([r.stderr ** 2 for r in fitted])
    denom = float(c @ c)
    if denom == 0.0:
        raise ValueError("cosine fit needs an estimated row with cos(phi) != 0")
    return float(c @ e) / denom, float(np.sqrt(c ** 2 @ var)) / denom


def sweep_csv_text(rows: Iterable[SweepRow]) -> str:
    """CSV with the fixed column contract; floats use repr so parsing round-trips."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        t = row.tally
        writer.writerow([
            repr(row.phi), t.trials, t.kept, t.discarded,
            t.counts[(1, 1)], t.counts[(1, -1)], t.counts[(-1, 1)], t.counts[(-1, -1)],
            "" if row.e_xx is None else repr(row.e_xx),
            "" if row.stderr is None else repr(row.stderr),
            "" if row.expected is None else repr(row.expected),
        ])
    return buf.getvalue()


def write_sweep_csv(rows: Iterable[SweepRow], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(sweep_csv_text(rows))


def run_manifest(command: str, config: ExperimentConfig, workers: int,
                 version: str) -> dict:
    """Audit record accompanying every output file; rerunning it reproduces the CSV.

    ``workers`` is recorded as given; it does not change the draw.
    """
    return {
        "command": command,
        "config": {
            "phi": config.phi,
            "visibility": config.visibility,
            "eta": config.eta,
            "dark": config.dark,
            "sigma": config.sigma,
            "trials": config.trials,
            "seed": config.seed,
        },
        "workers": workers,
        "stream_version": STREAM_VERSION,
        "stream_rule": STREAM_RULE,
        "version": version,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def write_manifest(manifest: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
