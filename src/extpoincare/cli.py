"""Command line surface: invariant reports, orbit tables and experiment runs.

Commands
    group-check   group-level invariants plus the informational eta table
    orbit         images of a momentum under the four discrete elements
    rep-check     doublet representation invariants
    bell-check    two-qubit dictionary invariants
    experiment    run | sweep: Monte Carlo tallies as CSV plus a JSON manifest
                  with the cosine fit; --config also takes a manifest, refused
                  unless it was written under the current stream version

Exit status, set in ``main`` alone: 0; 1 for a FAIL row (an asserted invariant
fails); 2 for input errors, printed as one ``error:`` line (a size too large to
allocate, an unreadable --config and an unwritable or empty --out included);
141 for a closed standard output (as a shell reports SIGPIPE), --help included.
Physics outcomes (signs, magnitudes, discarded trials, a fit far from its
prediction) never change it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__, checks, experiment, group

CONFIG_FIELDS = dataclasses.fields(experiment.ExperimentConfig)
CONFIG_KEYS = tuple(f.name for f in CONFIG_FIELDS)
EXIT_CLOSED_STDOUT = 141


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads every negative float literal as a value, not an option.

    argparse's own matcher misses exponent forms such as -1.5e-05 and
    inf/nan spellings, so ``orbit -1.5e-05 0 0 1`` or ``--phi -1e-05``
    would fail as unknown options.  Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

    def _print_message(self, message, file=None):
        # argparse's own version drops an OSError from this write, so --help into
        # a closed pipe would exit 0 when unbuffered; let main map it to 141
        if message:
            (file or sys.stderr).write(message)


def _report_lines(results) -> list[str]:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status}  {r.name}  (max deviation {r.max_deviation:.3e}, tolerance {r.tolerance:g})"
        if r.note:
            line += f"  [{r.note}]"
        lines.append(line)
    return lines


def _emit(args, doc: dict, lines: list[str]) -> None:
    """Write ``doc`` to --out, then print it as JSON or as ``lines``; a failed write prints none."""
    if args.out is not None:
        experiment.write_json(doc, args.out)
    print(json.dumps(doc, indent=2) if args.format == "json" else "\n".join(lines))


def _check_report(args, results, extra: dict, lines: list[str]) -> int:
    _emit(args, {"command": args.command, "seed": args.seed,
                 "checks": [dataclasses.asdict(r) for r in results],
                 "version": __version__, **extra}, lines)
    return 0 if all(r.passed for r in results) else 1


def _cmd_group_check(args) -> int:
    results = checks.group_checks(args.convention, args.samples, args.seed)
    table = checks.ad_eta_table(args.convention, seed=args.seed)
    lines = [f"convention: {args.convention}", *_report_lines(results),
             "informational: eta deviation of conjugated generators "
             "(closure in the identity component is not asserted)"]
    lines += [f"  {row['generator']:<15} parameter {row['parameter']:+.3f}  "
              f"eta deviation {row['eta_deviation']:.3e}" for row in table]
    return _check_report(args, results, {
        "convention": args.convention,
        "samples": args.samples,
        "conjugated_generator_eta_deviations": table,
    }, lines)


def _cmd_orbit(args) -> int:
    fields = dict(zip(("P0", "P1", "P2", "P3"), args.p), theta=args.theta, phi=args.phi)
    for name, value in fields.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    p = np.array(args.p, dtype=float)
    rows = group.z_orbit(p, args.theta, args.phi, args.convention)
    doc = {
        "command": "orbit",
        "momentum": list(p),
        "theta": args.theta,
        "phi": args.phi,
        "convention": args.convention,
        "orbit": [{"z": tag, "image": [float(x) for x in image], "class": cls.value}
                  for tag, image, cls in rows],
    }
    lines = [f"{'z':<14}{'image':<44}class"]
    for tag, image, cls in rows:
        image_txt = "(" + ", ".join(f"{x:+.6g}" for x in image) + ")"
        lines.append(f"{tag:<14}{image_txt:<44}{cls.value}")
    _emit(args, doc, lines)
    if args.format != "json" and all(cls is group.OrbitClass.ZERO for _, _, cls in rows):
        print("warning: zero momentum, every image is the zero class", file=sys.stderr)
    return 0


def _cmd_rep_check(args) -> int:
    results = checks.rep_checks(args.grid_size, args.helicity, args.trials, args.seed)
    return _check_report(args, results, {
        "grid_size": args.grid_size,
        "helicity": args.helicity,
        "trials": args.trials,
    }, _report_lines(results))


def _cmd_bell_check(args) -> int:
    results = checks.bell_checks(args.grid_size, args.trials, args.seed)
    return _check_report(args, results, {
        "grid_size": args.grid_size,
        "trials": args.trials,
    }, _report_lines(results))


def _load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise ValueError(f"malformed config file {path}: {err}") from err
    if not isinstance(doc, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    if isinstance(doc.get("config"), dict):  # a manifest as a config source
        version = doc.get("stream_version", 1)  # v1 manifests carry no version
        if version != experiment.STREAM_VERSION:
            raise ValueError(
                f"manifest {path} records stream_version {version!r}, but this build "
                f"draws under stream_version {experiment.STREAM_VERSION} and would "
                "not reproduce its CSV")
        doc = doc["config"]
    for key in doc:
        if key not in CONFIG_KEYS:
            raise ValueError(f"config file {path}: unknown key {key!r} "
                             f"(expected one of {', '.join(CONFIG_KEYS)})")
    return doc


def _build_config(args) -> experiment.ExperimentConfig:
    """The config file's values, then the flags given, over ``ExperimentConfig``'s defaults."""
    values = _load_config_file(args.config) if args.config else {}
    values.update({key: getattr(args, key) for key in CONFIG_KEYS
                   if getattr(args, key) is not None})
    return experiment.ExperimentConfig(**values)


def _cmd_experiment(args) -> int:
    if args.workers < 1:
        raise ValueError(f"workers must be positive, got {args.workers}")
    if args.subcommand == "sweep":
        if args.points < 1:
            raise ValueError(f"points must be at least 1, got {args.points}")
        for name in ("start", "stop"):
            if not math.isfinite(getattr(args, name)):
                raise ValueError(f"{name} must be finite, got {getattr(args, name)!r}")
        if not math.isfinite(args.stop - args.start):
            raise ValueError(f"stop - start overflows, got start {args.start!r} "
                             f"and stop {args.stop!r}")
    config = _build_config(args)
    if args.subcommand == "run":
        phis = [config.phi]
    else:
        phis = np.linspace(args.start, args.stop, args.points)
    rows = experiment.sweep_phase(phis, config)
    manifest = experiment.run_manifest(f"experiment {args.subcommand}", config, rows,
                                       args.workers)
    if args.out is not None:
        experiment.write_sweep_csv(rows, args.out)
        try:
            experiment.write_manifest(manifest, args.out + ".manifest.json")
        except OSError:  # leave both files or neither
            os.remove(args.out)
            raise
        print(f"wrote {args.out} and {args.out}.manifest.json")
    else:
        print(experiment.sweep_csv_text(rows), end="")
    for row in rows:
        if row.e_xx is None:
            print(f"note: phi={row.phi:.6g}: all {row.tally.discarded} trials discarded, "
                  "no correlation estimate", file=sys.stderr)
    fit = manifest["cosine_fit"]
    if fit["z"] is not None and abs(fit["z"]) > 4:
        print(f"note: fitted cosine amplitude {fit['amplitude']:+.5f} +- {fit['stderr']:.5f} "
              f"is {fit['z']:+.1f} stderr from the prediction {fit['prediction']:+.5f}",
              file=sys.stderr)
    return 0


def _add_report_flags(p) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="extpoincare",
        description="Extended Poincare group toolkit: invariant reports, orbit "
                    "tables and the correlation interferometer Monte Carlo.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group-check", help="group-level invariant suite")
    p.add_argument("--convention", choices=("momentum", "coordinate"), default="momentum")
    p.add_argument("--samples", type=int, default=100)
    _add_report_flags(p)
    p.set_defaults(func=_cmd_group_check)

    p = sub.add_parser("orbit", help="discrete orbit of a momentum")
    # a one-word metavar: argparse cannot print a usage error for a tuple one
    p.add_argument("p", type=float, nargs=4, metavar="P", help="momentum P0 P1 P2 P3")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--convention", choices=("momentum", "coordinate"), default="momentum")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("rep-check", help="doublet representation invariant suite")
    p.add_argument("--grid-size", type=int, default=16)
    p.add_argument("--helicity", type=int, default=1)
    p.add_argument("--trials", type=int, default=100)
    _add_report_flags(p)
    p.set_defaults(func=_cmd_rep_check)

    p = sub.add_parser("bell-check", help="two-qubit dictionary invariant suite")
    p.add_argument("--grid-size", type=int, default=8)
    p.add_argument("--trials", type=int, default=100)
    _add_report_flags(p)
    p.set_defaults(func=_cmd_bell_check)

    p = sub.add_parser("experiment", help="interferometer Monte Carlo")
    esub = p.add_subparsers(dest="subcommand", required=True)
    for name in ("run", "sweep"):
        ep = esub.add_parser(name)
        ep.add_argument("--config", default=None, help="JSON config file; flags win")
        for f in CONFIG_FIELDS:
            ep.add_argument(f"--{f.name}", type=type(f.default), default=None)
        ep.add_argument("--workers", type=int, default=1,
                        help="recorded in the manifest; each point is one draw, "
                             "so the count changes no work and no result")
        ep.add_argument("--out", default=None, help="CSV path; manifest goes next to it")
        if name == "sweep":
            ep.add_argument("--start", type=float, default=0.0)
            ep.add_argument("--stop", type=float, default=float(2 * np.pi))
            ep.add_argument("--points", type=int, default=17)
        ep.set_defaults(func=_cmd_experiment, subcommand=name)

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except BrokenPipeError:  # an OSError, but the reader's doing: 141 below
            raise
        except (ValueError, OSError, MemoryError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        finally:  # also after --help: a closed pipe fails here, not at interpreter shutdown
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull so that
        # shutdown's own flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT


if __name__ == "__main__":
    raise SystemExit(main())
