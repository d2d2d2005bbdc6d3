"""Benchmark of the extpoincare command line, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload mc-bulk --seed 1 --seconds 20 --trace 0

The workload repeats closed-loop passes of ``cli.main`` calls (see
``workloads.py``) for ``--seconds`` seconds in this one process, with the CLI
default ``--workers 1``.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the run record, and
in traced runs the spans, go to ``.bench_run/``.
"""

from __future__ import annotations

import argparse
import collections
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
# The load is one thread.  With a BLAS thread pool, a busy neighbour on any
# core stalls every matrix product at its barrier, which doubled the
# run-to-run spread of checks-large on a shared 2-vCPU host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

E2E_UNITS = {
    "wall_s": "s",
    "trials_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Tail percentile: the highest of these with at least TAIL_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
SETUP_REPEATS = 7
SETUP_CODE = ("import time\n"
              "start = time.perf_counter()\n"
              "import extpoincare.cli as cli\n"
              "cli.build_parser()\n"
              "print(repr(time.perf_counter() - start))\n")
HOST_NOTE = ("reference numbers in bench/README.md come from a shared 2-vCPU host; "
             "other tenants add noise to every timing")


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer, names in tracer.LAYERS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update({
        "experiment.trials": "count",
        "experiment.trials_per_busy_s": "1/s",
        "experiment.kept_ratio": "ratio",
        "qubit.dense_bytes_computed": "B",
        "doublet.bytes_computed": "B",
        "cli.out_bytes": "B",
        "trace.overhead_s": "s",
    })
    return units


def tail(values: list[float], top: float = 100.0) -> tuple[float, str]:
    """Highest ladder percentile up to ``top`` with TAIL_BEYOND samples beyond it.

    Below 20 samples no percentile qualifies and the maximum is returned.
    """
    n = len(values)
    for p in TAIL_LADDER:
        if p <= top and n * (100.0 - p) / 100.0 >= TAIL_BEYOND:
            return float(np.percentile(values, p)), f"p{p:g}"
    return float(max(values)), "max"


def commit_of(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def measure_setup(src: Path) -> tuple[float, list[float]]:
    """Median over fresh interpreters of importing extpoincare.cli and building its parser."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH", "")) if p)
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        if i:  # the first start compiles bytecode and fills the file cache
            times.append(float(proc.stdout))
    return statistics.median(times), times


def run_passes(run_pass, env, seconds: float, trace: bool):
    """Closed-loop passes until the next one would end after ``seconds``.

    In traced runs passes alternate untraced / traced, starting untraced;
    ``env`` installs its tracer around each call of a traced pass.  Returns
    ``(pass result, per-layer metrics or None)`` per pass.
    """
    run_pass(env, 0, warm=True)
    passes = []
    start = time.perf_counter()
    while True:
        index = len(passes)
        began = time.perf_counter()
        env.tracing = trace and index % 2 == 1
        lo = len(env.tracer.spans)
        env.tracer.counters.clear()
        result = run_pass(env, index)
        layer = traced_pass_metrics(env.tracer, lo, result) if env.tracing else None
        passes.append((result, layer))
        now = time.perf_counter()
        if (not trace or len(passes) >= 2) and now - start + (now - began) > seconds:
            return passes


def traced_pass_metrics(tr: tracer.Tracer, lo: int, result) -> dict:
    """Per-layer metrics of the traced pass whose spans start at ``tr.spans[lo]``."""
    m = tracer.layer_metrics(tr.spans, lo)
    trials = tr.counters["experiment.trials"]
    busy = sum(s[2] - s[1] for s in tr.spans[lo:] if s[0] == "experiment.run_trials")
    m["experiment.trials"] = trials
    m["experiment.trials_per_busy_s"] = trials / busy if busy else 0.0
    m["experiment.kept_ratio"] = tr.counters["experiment.kept"] / trials if trials else 0.0
    m["qubit.dense_bytes_computed"] = tr.counters["qubit.dense_bytes_computed"]
    m["doublet.bytes_computed"] = tr.counters["doublet.bytes_computed"]
    m["cli.out_bytes"] = result.out_bytes
    return m


def end_to_end(passes, setup_s: float, tail_top: float) -> tuple[dict, str]:
    results = [p for p, _ in passes]
    latencies = [x for p in results for x in p.latencies]
    tail_s, tail_label = tail(latencies, tail_top)
    values = {
        "wall_s": statistics.median(p.wall for p in results),
        "trials_per_s": statistics.median(p.trials / p.trial_time for p in results),
        "op_p50_s": float(np.percentile(latencies, 50.0)),
        "op_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    return values, f"op_tail_s is {tail_label} of {len(latencies)} op latencies"


def per_layer(passes) -> tuple[dict, str]:
    """Median over traced passes of each per-layer metric.

    ``trace.overhead_s`` is the traced passes' wall_s minus the untraced ones'.
    """
    traced = [(p, layer) for p, layer in passes if layer is not None]
    plain = [p for p, layer in passes if layer is None]
    values = {name: statistics.median(layer[name] for _, layer in traced)
              for name in per_layer_units() if name != "trace.overhead_s"}
    values["trace.overhead_s"] = (statistics.median(p.wall for p, _ in traced)
                                  - statistics.median(p.wall for p in plain))
    return values, f"{len(traced)} traced and {len(plain)} untraced passes"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")

    root = Path.cwd()
    src = root / "src"
    if not (src / "extpoincare" / "__init__.py").is_file():
        print(f"error: no src/extpoincare under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import extpoincare
    from extpoincare import checks, cli, doublet, experiment, group, qubit
    if Path(extpoincare.__file__).resolve().parent != (src / "extpoincare").resolve():
        print(f"error: imported extpoincare from {extpoincare.__file__}, not {src}",
              file=sys.stderr)
        return 2

    modules = {"group": group, "doublet": doublet, "qubit": qubit,
               "experiment": experiment, "checks": checks, "cli": cli}
    tr = tracer.Tracer([(modules[layer], layer, names)
                        for layer, names in tracer.LAYERS.items()], tracer.OBSERVERS)
    out_dir = root / ".bench_run"
    out_dir.mkdir(exist_ok=True)
    setup_s, setup_samples = (None, []) if args.trace else measure_setup(src)

    correct, error = True, ""
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        env = workloads.Env(cli, experiment, doublet, Path(tmp), args.seed, tr)
        try:
            passes = run_passes(workloads.WORKLOADS[args.workload], env, args.seconds,
                                bool(args.trace))
        except workloads.FormatError as err:
            correct, error, passes = False, str(err), []

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit_of(root),
        "stream_rule": experiment.STREAM_RULE,
        "host_note": HOST_NOTE,
    }
    print("run record: " + json.dumps(record))
    if not correct:
        # the one failure is the operation whose output could not be checked
        print(f"incorrect output, nothing measured: {error}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    attempted = sum(p.attempted for p, _ in passes)
    failed = sum(p.failed for p, _ in passes)
    if args.trace:
        values, note = per_layer(passes)
        units = per_layer_units()
    else:
        values, note = end_to_end(passes, setup_s, workloads.TAIL_TOP[args.workload])
        units = E2E_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    print(f"{args.workload}: {len(passes)} passes, {note}")
    if args.trace:
        print("group self times include the wrappers, which cost about as much as "
              "one 4x4 group call each")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  fail_ratio = {failed / attempted:.6g} ({failed} failed / {attempted} attempted)")
    reasons = collections.Counter(r for p, _ in passes for r in p.failures)
    for r, count in reasons.most_common(20):
        print(f"  failure x{count}: {r}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = dict(record, metrics=metrics, attempted=attempted, failed=failed,
               failures=reasons, setup_samples=setup_samples,
               passes=[{"wall_s": p.wall, "traced": layer is not None, "ops": p.attempted,
                        "failed": p.failed, "trials": p.trials, "trial_time_s": p.trial_time,
                        "latencies_s": p.latencies} for p, layer in passes])
    (out_dir / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")
    if args.trace:
        with gzip.open(out_dir / f"{stem}.spans.jsonl.gz", "wt") as fh:
            for span in tr.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
