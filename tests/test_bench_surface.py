"""What the benchmark in ``bench/`` calls and wraps in the package.

The tracer looks up every name in its ``LAYERS`` and ``OBSERVERS`` on the
package modules, and the oracles build grids and states through the doublet
API, so dropping or reshaping one of those names breaks only a traced
benchmark run.  These tests load the two bench modules from their files and
exercise that surface with one small call per command.
"""

import importlib.util
from pathlib import Path

from extpoincare import checks, cli, doublet, experiment, group, qubit

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = {"group": group, "doublet": doublet, "qubit": qubit,
           "experiment": experiment, "checks": checks, "cli": cli}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_command_runs_under_the_benchmark_tracer(tmp_path, capsys):
    tracer = _load("tracer")
    tr = tracer.Tracer([(MODULES[layer], layer, names)
                        for layer, names in tracer.LAYERS.items()], tracer.OBSERVERS)
    argvs = [["group-check"],
             ["orbit", "1", "0.5", "0", "0.2"],
             ["rep-check", "--trials", "2"],
             ["bell-check", "--trials", "2"],
             ["experiment", "run", "--trials", "100", "--out", str(tmp_path / "run.csv")],
             ["experiment", "sweep", "--trials", "100", "--points", "3",
              "--out", str(tmp_path / "sweep.csv")]]
    with tr.installed():
        for argv in argvs:
            assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert sum(span[0] == "cli.main" for span in tr.spans) == len(argvs)
    assert tr.counters["experiment.trials"] == 400
    assert not hasattr(cli.main, "__wrapped__")  # the originals are back


def test_the_doublet_oracle_finds_every_output_finite():
    assert _load("oracles").nonfinite_doublet_outputs(doublet, 16, 1, 0) == []
