"""The three benchmark workloads, each a pass of ``cli.main`` calls checked against oracles.

A pass is a fixed list of operations run closed loop: one caller, each call
waits for the previous one.  Inputs derive from the workload seed and the
pass index only.  An operation fails when it exits with an unexpected status,
raises, reports FAIL, prints a non-finite number, or disagrees with an oracle
in ``oracles.py``; the reasons are kept for the run record.  Output that
breaks its documented format cannot be checked at all and raises
``FormatError``, which marks the whole run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from tracer import clocked

CSV_COLUMNS = ("phi_rad", "trials", "kept", "discarded",
               "n_pp", "n_pm", "n_mp", "n_mm", "e_xx", "stderr", "expected")
MANIFEST_KEYS = ("command", "config", "workers", "stream_rule", "version", "timestamp")
REPORT_LINE = re.compile(r"^(PASS|FAIL)  (.+?)  \(max deviation (\S+), tolerance (\S+)\)")
TWO_PI = 2.0 * math.pi


class FormatError(Exception):
    """The program's output breaks its documented format, so it cannot be checked."""


@dataclass
class CliResult:
    code: int | None
    stdout: str
    stderr: str
    seconds: float
    error: str = ""


def call_cli(cli, argv: list[str]) -> CliResult:
    """Run ``cli.main(argv)`` in process with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed operation, recorded by name
        code, error = None, f"{type(exc).__name__}: {exc}"
    return CliResult(code, out.getvalue(), err.getvalue(), time.perf_counter() - start, error)


@dataclass
class PassResult:
    """What one pass measured: op latencies, failures and work done."""

    wall: float = 0.0
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    trials: int = 0
    trial_time: float = 0.0
    out_bytes: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, res: CliResult, reasons: list[str], timed: bool = True,
            trials: int = 0, out_csv: Path | None = None) -> None:
        """Account one operation.  Probes (``timed=False``) count but are not timed."""
        self.wall += res.seconds
        self.out_bytes += len(res.stdout) + len(res.stderr) + _sizes(out_csv)
        if timed:
            self.latencies.append(res.seconds)
        if trials:
            self.trials += trials
            self.trial_time += res.seconds
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.failures.extend(reasons)


@dataclass
class Env:
    """Modules under test, scratch directory, workload seed and the tracer.

    Each ``call`` is one operation.  While ``tracing`` is set the tracer is
    installed for the call only, so the output checks around it stay
    untraced; spans recorded during one call share its op id.
    """

    cli: object
    experiment: object
    doublet: object
    tmp: Path
    seed: int
    tracer: object
    tracing: bool = False

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, index])

    def call(self, argv: list[str]) -> CliResult:
        self.tracer.op += 1
        if not self.tracing:
            return call_cli(self.cli, argv)
        with self.tracer.installed():
            return call_cli(self.cli, argv)


def _sizes(csv_path: Path | None) -> int:
    """Bytes of an experiment CSV and its manifest."""
    if csv_path is None:
        return 0
    files = (csv_path, Path(f"{csv_path}.manifest.json"))
    return sum(f.stat().st_size for f in files if f.exists())


def report_failures(res: CliResult, command: str) -> list[str]:
    """Failures in a check-suite report: FAIL lines, non-finite deviations, exit status."""
    if res.error:
        return [f"{command} raised {res.error}"]
    lines = [m for m in map(REPORT_LINE.match, res.stdout.splitlines()) if m]
    if not lines:
        raise FormatError(f"{command} printed no report line (exit {res.code})")
    reasons = [f"{command}: FAIL {m.group(2)}" for m in lines if m.group(1) == "FAIL"]
    reasons += [f"{command}: non-finite deviation in {m.group(2)}" for m in lines
                if not math.isfinite(float(m.group(3)))]
    want = 1 if any(m.group(1) == "FAIL" for m in lines) else 0
    if res.code != want:
        reasons.append(f"{command}: exit {res.code}, report implies {want}")
    return reasons


def _num(row: dict, key: str, kind=float):
    try:
        return kind(row[key])
    except ValueError as err:
        raise FormatError(f"CSV column {key} is not {kind.__name__}: {row[key]!r}") from err


def sweep_failures(csv_path: Path, phis, trials: int, params: dict) -> list[list[str]]:
    """Per-row failure reasons of an experiment CSV against the kept-trial oracle."""
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != CSV_COLUMNS:
        raise FormatError(f"CSV header {rows[:1]} is not {CSV_COLUMNS}")
    if len(rows) - 1 != len(phis):
        raise FormatError(f"CSV has {len(rows) - 1} rows for {len(phis)} phases")
    out = []
    for phi, raw in zip(phis, rows[1:]):
        row = dict(zip(CSV_COLUMNS, raw))
        if abs(_num(row, "phi_rad") - phi) > 1e-12:
            raise FormatError(f"CSV row phi {row['phi_rad']} where {phi!r} was asked for")
        n = [_num(row, k, int) for k in ("n_pp", "n_pm", "n_mp", "n_mm")]
        kept, discarded = _num(row, "kept", int), _num(row, "discarded", int)
        oracle = oracles.kept_correlation(phi, **params)
        where = f"phi={phi:.4f}"
        reasons = []
        if _num(row, "trials", int) != trials or kept + discarded != trials or sum(n) != kept:
            reasons.append(f"{where}: counts do not add up to {trials} trials")
        if not row["e_xx"]:
            reasons.append(f"{where}: no estimate from {kept} kept trials")
        else:
            e, stderr = _num(row, "e_xx"), _num(row, "stderr")
            if not (math.isfinite(e) and math.isfinite(stderr)):
                reasons.append(f"{where}: non-finite e_xx {e} or stderr {stderr}")
            elif abs(e - (n[0] - n[1] - n[2] + n[3]) / kept) > 1e-12:
                reasons.append(f"{where}: e_xx {e} disagrees with its counts")
            elif abs(e - oracle) > max(oracles.STDERR_LIMIT * stderr, 1e-12):
                reasons.append(f"{where}: e_xx {e:.5f} is more than "
                               f"{oracles.STDERR_LIMIT:g} stderr from {oracle:.5f}")
        expected = _num(row, "expected")
        if not abs(expected - oracle) <= oracles.EXPECTED_TOL:
            reasons.append(f"{where}: expected column {expected:.5f}, oracle {oracle:.5f}")
        out.append(reasons)
    return out


def check_manifest(path: Path, experiment, trials: int, seed: int) -> None:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise FormatError(f"manifest {path.name}: {err}") from err
    missing = [k for k in MANIFEST_KEYS if k not in doc]
    if missing:
        raise FormatError(f"manifest lacks {missing}")
    config = doc["config"]
    if config.get("trials") != trials or config.get("seed") != seed:
        raise FormatError(f"manifest config {config} does not record trials={trials}, seed={seed}")
    if doc["stream_rule"] != experiment.STREAM_RULE:
        raise FormatError("manifest stream rule differs from experiment.STREAM_RULE")


def experiment_argv(subcommand: str, params: dict, trials: int, seed: int,
                    out: Path) -> list[str]:
    argv = ["experiment", subcommand, "--trials", str(trials), "--seed", str(seed),
            "--out", str(out)]
    for key, value in params.items():
        argv += [f"--{key}", repr(value)]
    return argv


def experiment_failures(env: Env, res: CliResult, out: Path, phis, trials: int, seed: int,
                        params: dict) -> list[list[str]]:
    """Per-point failure reasons of an ``experiment run|sweep --out`` call."""
    if res.error or res.code != 0:
        why = f"experiment raised {res.error}" if res.error else f"experiment exit {res.code}"
        return [[why] for _ in phis]
    check_manifest(Path(f"{out}.manifest.json"), env.experiment, trials, seed)
    return sweep_failures(out, phis, trials, params)


def _experiment_params(params: dict) -> dict:
    """Oracle keyword arguments from CLI flag values."""
    keys = ("visibility", "sigma", "eta", "dark")
    return {k: params[k] for k in keys if k in params}


# --- mc-bulk -----------------------------------------------------------------

MC_POINTS = 17
MC_TRIALS = 4 * 65536
MC_PARAMS = {"visibility": 0.9, "sigma": 0.2, "eta": 0.5, "dark": 0.05}


def mc_bulk_pass(env: Env, index: int, warm: bool = False) -> PassResult:
    """One 17-point sweep with every imperfection on; ops are the sweep points."""
    trials = 65536 if warm else MC_TRIALS
    seed = int(env.rng(index).integers(2 ** 31))
    out = env.tmp / "mc-bulk.csv"
    argv = experiment_argv("sweep", MC_PARAMS, trials, seed, out) + ["--points", str(MC_POINTS)]
    point_times: list[float] = []
    with clocked(env.experiment, "run_trials", point_times):
        res = env.call(argv)
    phis = np.linspace(0.0, TWO_PI, MC_POINTS)
    rows = experiment_failures(env, res, out, phis, trials, seed, _experiment_params(MC_PARAMS))
    if len(point_times) != MC_POINTS:
        # the sampler no longer runs once per point: share the call out evenly
        point_times = [res.seconds / MC_POINTS] * MC_POINTS
    p = PassResult(wall=res.seconds, latencies=point_times, trials=trials * MC_POINTS,
                   trial_time=res.seconds, attempted=MC_POINTS,
                   out_bytes=len(res.stdout) + len(res.stderr) + _sizes(out))
    for reasons in rows:
        if reasons:
            p.failed += 1
            p.failures.extend(reasons)
    return p


# --- checks-large ------------------------------------------------------------

REP_LARGE = 4096
REP_TRIALS = 20
REP_CALLS = 13
BELL_LARGE = 1024
BELL_TRIALS = 1


def _suite(env: Env, p: PassResult, command: str, size: int, trials: int, seed: int) -> None:
    res = env.call([command, "--grid-size", str(size), "--trials", str(trials),
                    "--seed", str(seed)])
    reasons = report_failures(res, command)
    if command == "rep-check":
        bad = oracles.nonfinite_doublet_outputs(env.doublet, size, 1, seed)
        if bad:
            reasons.append(f"rep-check N={size}: non-finite output from {', '.join(bad)}")
    p.add(res, reasons, trials=trials)


def checks_large_pass(env: Env, index: int, warm: bool = False) -> PassResult:
    """Thirteen rep-checks at N=4096 and one bell-check at N=1024; ops are suite calls.

    Fourteen ops a pass keep the three to five passes of a 35 s run inside
    one tail band (40 to 99 ops, so p75) in every run.  The median and tail
    ops are rep-checks (array-bound doublet work); the bell-check (dense
    qubit matrices) shows in wall_s and peak_rss_mb.
    """
    rep, bell = (16, 8) if warm else (REP_LARGE, BELL_LARGE)
    seeds = env.rng(index).integers(2 ** 31, size=REP_CALLS + 1)
    p = PassResult()
    for seed in seeds[:-1]:
        _suite(env, p, "rep-check", rep, REP_TRIALS, int(seed))
    _suite(env, p, "bell-check", bell, BELL_TRIALS, int(seeds[-1]))
    return p


# --- cli-default -------------------------------------------------------------

RUN_TRIALS = 20_000
SWEEP_TRIALS = 4096
DEFAULT_POINTS = 17
IDEAL_DETECTORS = {"visibility": 0.95, "sigma": 0.1}


def orbit_failures(res: CliResult, p, theta: float, phi: float) -> list[str]:
    """Failures of an ``orbit --format json`` call against the oracle images and classes."""
    if res.error or res.code != 0:
        return [f"orbit exit {res.code} {res.error}".rstrip()]
    try:
        rows = {r["z"]: r for r in json.loads(res.stdout)["orbit"]}
    except (json.JSONDecodeError, KeyError, TypeError) as err:
        raise FormatError(f"orbit JSON: {err}") from err
    reasons = []
    for tag, image in oracles.orbit_images(p, theta, phi).items():
        if tag not in rows:
            raise FormatError(f"orbit JSON lacks z={tag}")
        got = np.asarray(rows[tag]["image"], dtype=float)
        scale = 1.0 + float(np.max(np.abs(image)))
        if not np.all(np.isfinite(got)) or np.max(np.abs(got - image)) > 1e-12 * scale:
            reasons.append(f"orbit z={tag}: image {got.tolist()} != {image.tolist()}")
        elif rows[tag]["class"] != oracles.orbit_class(image):
            reasons.append(f"orbit z={tag}: class {rows[tag]['class']}, "
                           f"want {oracles.orbit_class(image)}")
    return reasons


def _momenta(rng: np.random.Generator):
    """A forward timelike, a backward timelike and a spacelike momentum."""
    out = []
    for kind in ("forward", "backward", "spacelike"):
        q = rng.uniform(-2.0, 2.0, 3)
        size = float(np.linalg.norm(q))
        p0 = size + rng.uniform(0.1, 2.0) if kind != "spacelike" else rng.uniform(-0.5, 0.5) * size
        out.append(np.concatenate([[-p0 if kind == "backward" else p0], q]))
    return out


def cli_default_pass(env: Env, index: int, warm: bool = False) -> PassResult:
    """A sequence of default-size commands plus two robustness probes."""
    rng = env.rng(index)
    seed = int(rng.integers(2 ** 31))
    p = PassResult()

    for convention in ("momentum", "coordinate"):
        res = env.call(["group-check", "--convention", convention, "--seed", str(seed)])
        p.add(res, report_failures(res, "group-check"))

    for momentum in _momenta(rng):
        theta, phi = float(rng.uniform(0.0, math.pi)), float(rng.uniform(0.0, TWO_PI))
        res = env.call(["orbit", *map(repr, momentum.tolist()), "--theta", repr(theta),
                        "--phi", repr(phi), "--format", "json"])
        p.add(res, orbit_failures(res, momentum, theta, phi))

    res = env.call(["rep-check", "--seed", str(seed)])
    reasons = report_failures(res, "rep-check")
    if oracles.nonfinite_doublet_outputs(env.doublet, 16, 1, seed):
        reasons.append("rep-check N=16: non-finite output")
    p.add(res, reasons)
    res = env.call(["bell-check", "--seed", str(seed)])
    p.add(res, report_failures(res, "bell-check"))

    out = env.tmp / "cli-default.csv"
    params = dict(IDEAL_DETECTORS, phi=float(rng.uniform(0.0, TWO_PI)))
    res = env.call(experiment_argv("run", params, RUN_TRIALS, seed, out))
    rows = experiment_failures(env, res, out, [params["phi"]], RUN_TRIALS, seed,
                               _experiment_params(params))
    p.add(res, rows[0], trials=RUN_TRIALS, out_csv=out)

    res = env.call(experiment_argv("sweep", IDEAL_DETECTORS, SWEEP_TRIALS, seed, out))
    rows = experiment_failures(env, res, out, np.linspace(0.0, TWO_PI, DEFAULT_POINTS),
                               SWEEP_TRIALS, seed, _experiment_params(IDEAL_DETECTORS))
    p.add(res, [r for row in rows for r in row], trials=SWEEP_TRIALS * DEFAULT_POINTS,
          out_csv=out)

    # Robustness probes: NaN input must be rejected with exit 2.  They count
    # as operations but stay out of the latency statistics.
    for argv in (["experiment", "run", "--sigma", "nan", "--trials", "1000"],
                 ["orbit", "nan", "0", "0", "0"]):
        res = env.call(argv)
        reasons = [] if res.code == 2 else [f"probe {' '.join(argv)}: exit {res.code}, want 2"]
        p.add(res, reasons, timed=False)
    return p


# Highest tail percentile per workload: the one a 35 s run reaches at its
# fewest ops (mc-bulk and cli-default over 200 ops, checks-large over 40).
# Capping it keeps op_tail_s the same percentile when a run does more passes.
TAIL_TOP = {"mc-bulk": 95.0, "checks-large": 75.0, "cli-default": 95.0}

WORKLOADS = {
    "mc-bulk": mc_bulk_pass,
    "checks-large": checks_large_pass,
    "cli-default": cli_default_pass,
}
