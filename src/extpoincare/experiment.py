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
probabilities known in closed form (``category_probabilities``), the one
outcome law of this module.  A whole point is one multinomial draw of its
trial count over those categories.  The dense analyzer-matrix chain and a
photon-by-photon sampler, which that law is tested against, live in
``tests/per_trial.py``.

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
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from typing import Iterable, Sequence

import numpy as np

from . import __version__

# x_dir * x_pol of D1..D4, the sign a lone click at that detector adds to E_XX
SIGNS = (1, -1, -1, 1)

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

    phi: float = 0.0
    visibility: float = 1.0
    eta: float = 1.0
    dark: float = 0.0
    sigma: float = 0.0
    trials: int = 100_000
    seed: int = 0

    def __post_init__(self):
        # exact float and int take the short path; the ABC checks cover the rest
        for name in ("phi", "visibility", "eta", "dark", "sigma"):
            value = getattr(self, name)
            real = type(value) is float or (not isinstance(value, bool)
                                            and isinstance(value, numbers.Real))
            if not (real and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        for name in ("trials", "seed"):
            value = getattr(self, name)
            if not (type(value) is int or (not isinstance(value, bool)
                                           and isinstance(value, numbers.Integral))):
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
    """Lone-click counts at D1..D4 (the CSV's n_pp, n_pm, n_mp, n_mm) plus discarded trials."""

    counts: np.ndarray
    discarded: int = 0

    @property
    def kept(self) -> int:
        return sum(self.counts.tolist())

    @property
    def trials(self) -> int:
        return self.kept + self.discarded


def category_probabilities(config: ExperimentConfig) -> np.ndarray:
    """Probabilities of the five trial categories: a lone click at D1..D4, then discarded.

    ``config.phi`` is the phase used; trials and seed are ignored.  The law
    itself is ``_lone_clicks`` of the correlation c = V cos phi.
    """
    lone, total = _lone_clicks(_correlation(config), config.eta, config.dark)
    return np.array([*lone, max(0.0, 1.0 - total)])


def _correlation(config: ExperimentConfig) -> float:
    """c = V cos phi with V = v exp(-sigma^2/2): E_XX of the state after phase jitter."""
    return config.visibility * math.exp(-0.5 * config.sigma * config.sigma) * math.cos(config.phi)


def _lone_clicks(c: float, eta: float, dark: float) -> tuple[list[float], float]:
    """P(lone click at D1..D4) for correlation c, and their sum.

    Averaging the Born weights over the Gaussian phase jitter gives
    q_j = (1 + s_j c)/4 with s_j the detector's sign in ``SIGNS``.  The
    photon clicks its detector with probability eta and each detector fires
    a dark click with probability d, all independently, so detector j
    clicks alone with probability (1-d)^3 (eta q_j + (1-eta) d).  Every
    other trial ends with no click or several and is discarded.  Scalar
    floats, summed left to right: the stream v2 golden digests in the tests
    pin this rounding.
    """
    survive = (1.0 - dark) ** 3
    fake = (1.0 - eta) * dark
    lone = [survive * (eta * ((1.0 + s * c) / 4.0) + fake) for s in SIGNS]
    p1, p2, p3, p4 = lone
    return lone, p1 + p2 + p3 + p4


def _signed_sum(values) -> float | int:
    """sum_j SIGNS[j] values[j], added left to right; exact for Python ints."""
    total = 0
    for s, value in zip(SIGNS, values):
        total += s * value
    return total


def expected_correlation(phi: float, visibility: float = 1.0, sigma: float = 0.0,
                         eta: float = 1.0, dark: float = 0.0) -> float | None:
    """E_XX over kept trials, the value the sampler converges to.

    The signed sum of the four lone-click probabilities over their total.
    Without dark counts this is v exp(-sigma^2/2) cos(phi) for any eta; dark
    clicks after photon loss dilute it to eta V cos(phi) / (eta + 4 (1-eta) d).
    Returns None when no trial is ever kept (eta = dark = 0).
    """
    return _expected(ExperimentConfig(phi, visibility=visibility, eta=eta, dark=dark, sigma=sigma))


def _expected(config: ExperimentConfig) -> float | None:
    lone, total = _lone_clicks(_correlation(config), config.eta, config.dark)
    if total == 0.0:
        return None
    return _signed_sum(lone) / total


def point_seed(seed: int, point: int) -> np.random.SeedSequence:
    """Seed sequence of sweep point ``point`` under master ``seed`` (stream rule v2)."""
    return np.random.SeedSequence(seed, spawn_key=(point,))


def run_trials(config: ExperimentConfig, point: int = 0) -> TrialTally:
    """Tally ``config.trials`` trials as one multinomial draw on the point's stream.

    Deterministic for a fixed config and point; ``experiment run`` is point 0.
    """
    rng = np.random.default_rng(point_seed(config.seed, point))
    n = rng.multinomial(config.trials, category_probabilities(config))
    return TrialTally(n[:4], discarded=int(n[4]))


def estimate_exx(tally: TrialTally) -> tuple[float, float]:
    """Correlation estimate sum(x_d x_p n)/sum(n) and its binomial standard error.

    The signed sum is taken in Python integers, so it stays exact for any
    trial count; one correctly rounded division then gives the estimate.
    """
    counts = tally.counts.tolist()
    kept = sum(counts)
    if kept == 0:
        raise ValueError(
            f"cannot estimate a correlation from an all-discarded tally "
            f"({tally.discarded} trials discarded, 0 kept)")
    e = _signed_sum(counts) / kept
    return e, math.sqrt(max(1.0 - e * e, 0.0) / kept)


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
        rows.append(SweepRow(cfg.phi, tally, e, stderr, _expected(cfg)))
    return rows


def fit_cosine(rows: Iterable[SweepRow]) -> tuple[float | None, float | None]:
    """Least-squares amplitude A of e_xx = A cos(phi) and its standard error.

    Rows without an estimate (every trial discarded) are left out.  Both are
    None when no estimated row has cos(phi) != 0.
    """
    fitted = [r for r in rows if r.e_xx is not None]
    c = np.array([np.cos(r.phi) for r in fitted])
    e = np.array([r.e_xx for r in fitted])
    var = np.array([r.stderr ** 2 for r in fitted])
    denom = float(c @ c)
    if denom == 0.0:
        return None, None
    return float(c @ e) / denom, float(np.sqrt(c ** 2 @ var)) / denom


def cosine_fit(rows: Sequence[SweepRow], config: ExperimentConfig) -> dict:
    """The sweep's cosine fit against the prediction, and the sign of e_xx at 0 against pi.

    E(phi) is exactly A cos(phi) with A the kept-trial correlation at phi = 0,
    dark-count dilution included, because the lone-click total does not
    depend on phi.  So ``fit_cosine``'s amplitude is compared with that A,
    z = (amplitude - prediction) / stderr.  The sign test reads the first rows
    whose phases lie within 1e-12 of 0 and of pi.  Each value is None when it
    is undefined: no estimated row with cos(phi) != 0, a stderr of 0, no such
    row, or that row all discarded.
    """
    amplitude, stderr = fit_cosine(rows)
    prediction = _expected(replace(config, phi=0.0))
    z = None
    if stderr and prediction is not None:  # stderr is None without a fit
        z = (amplitude - prediction) / stderr
    at_0, at_pi = (next((row for row in rows if abs(row.phi - phi) <= 1e-12), None)
                   for phi in (0.0, math.pi))
    e_0, e_pi = (None if row is None else row.e_xx for row in (at_0, at_pi))
    return {
        "amplitude": amplitude,
        "stderr": stderr,
        "prediction": prediction,
        "z": z,
        "e_xx_at_0": e_0,
        "phi_at_pi": None if at_pi is None else at_pi.phi,
        "e_xx_at_pi": e_pi,
        "signs_differ": None if e_0 is None or e_pi is None else e_0 * e_pi < 0,
    }


def sweep_csv_text(rows: Iterable[SweepRow]) -> str:
    """CSV with the fixed column contract; floats use repr so parsing round-trips."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        counts = row.tally.counts.tolist()
        kept = sum(counts)
        writer.writerow([
            repr(row.phi), kept + row.tally.discarded, kept, row.tally.discarded, *counts,
            "" if row.e_xx is None else repr(row.e_xx),
            "" if row.stderr is None else repr(row.stderr),
            "" if row.expected is None else repr(row.expected),
        ])
    return buf.getvalue()


def write_sweep_csv(rows: Iterable[SweepRow], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(sweep_csv_text(rows))


def run_manifest(command: str, config: ExperimentConfig, rows: Sequence[SweepRow],
                 workers: int) -> dict:
    """Audit record accompanying every output file; rerunning it reproduces the CSV.

    ``workers`` is recorded as given; it does not change the draw.  The
    ``cosine_fit`` entry judges the rows against the prediction.
    """
    return {
        "command": command,
        "config": asdict(config),
        "workers": workers,
        "stream_version": STREAM_VERSION,
        "stream_rule": STREAM_RULE,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "cosine_fit": cosine_fit(rows, config),
    }


def write_json(doc: dict, path) -> None:
    """Write ``doc`` as JSON indented by 2 with a trailing newline: every JSON file the CLI writes."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# the run manifest's writer; bench/tracer.py times manifest writes under this name
write_manifest = write_json
