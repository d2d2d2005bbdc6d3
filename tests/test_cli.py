import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from extpoincare import cli, experiment

# repr of tiny negative floats: exponent forms that argparse's own matcher
# takes for options
TINY_NEGATIVES = [repr(x) for x in (-1.5e-05, -6.783042040137133e-05, -2.5e-07,
                                    -1e-300, -5e-324)]


def run_cli(args):
    return cli.main(args)


def test_group_check_passes(capsys):
    assert run_cli(["group-check", "--samples", "25"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "eta deviation" in out


def test_group_check_coordinate_convention_notes_the_skip(capsys):
    assert run_cli(["group-check", "--samples", "10", "--convention", "coordinate"]) == 0
    out = capsys.readouterr().out
    assert "coordinate" in out
    assert "skipped" in out


def test_group_check_rejects_zero_samples(capsys):
    assert run_cli(["group-check", "--samples", "0"]) == 2
    assert "samples" in capsys.readouterr().err


def test_group_check_runs_with_one_sample(capsys):
    assert run_cli(["group-check", "--samples", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 8 and "FAIL" not in out


def test_group_check_json_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    assert run_cli(["group-check", "--samples", "10", "--format", "json",
                    "--out", str(out_file)]) == 0
    doc = json.loads(out_file.read_text())
    assert doc["command"] == "group-check"
    assert all(check["passed"] for check in doc["checks"])
    assert doc["conjugated_generator_eta_deviations"]


def test_orbit_timelike_table(capsys):
    assert run_cli(["orbit", "1", "0", "0", "0"]) == 0
    out = capsys.readouterr().out
    assert "massive-forward" in out
    assert "massive-backward" in out
    assert out.count("tachyonic") == 2


def test_orbit_lightlike_classes(capsys):
    assert run_cli(["orbit", "1", "0", "0", "1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    classes = {row["class"] for row in doc["orbit"]}
    assert classes == {"lightlike-forward", "lightlike-backward"}


def test_orbit_zero_vector_warns(capsys):
    assert run_cli(["orbit", "0", "0", "0", "0"]) == 0
    captured = capsys.readouterr()
    assert "zero" in captured.out
    assert "warning" in captured.err


@pytest.mark.parametrize("argv, field", [
    (["nan", "0", "0", "0"], "P0"),
    (["1", "0", "inf", "0"], "P2"),
    (["1", "0", "0", "0", "--theta", "nan"], "theta"),
    (["1", "0", "0", "0", "--phi=-inf"], "phi"),
    (["-inf", "0", "0", "0"], "P0"),
])
def test_orbit_rejects_non_finite_input_naming_the_field(argv, field, capsys):
    assert run_cli(["orbit", *argv]) == 2
    assert field in capsys.readouterr().err


def test_orbit_exponent_form_negative_number(capsys):
    for x in TINY_NEGATIVES:
        assert run_cli(["orbit", x, "0.3", "0.1", "1", "--theta", x, "--phi", x,
                        "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["momentum"][0] == float(x)
        assert doc["theta"] == float(x) and doc["phi"] == float(x)
        # -- still ends the options
        assert run_cli(["orbit", "--theta", x, "--phi", x, "--format", "json",
                        "--", x, "0.3", "0.1", "1"]) == 0
        assert json.loads(capsys.readouterr().out) == doc


def test_experiment_exponent_form_negative_numbers(tmp_path):
    out = tmp_path / "sweep.csv"
    for x in TINY_NEGATIVES:
        assert run_cli(["experiment", "run", "--phi", x, "--trials", "100",
                        "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["config"]["phi"] == float(x)
        assert run_cli(["experiment", "sweep", "--start", x, "--stop", x, "--points", "2",
                        "--trials", "100", "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert [row.split(",")[0] for row in rows] == [x, x]


def _run_with_stdout_closed(argv, unbuffered):
    # the pipe's read end is closed before the command starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
               PYTHONUNBUFFERED=unbuffered)
    try:
        return subprocess.run([sys.executable, "-m", "extpoincare.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)


# buffered, the write fails at main's flush; unbuffered, at the first print
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_closed_stdout_ends_the_run_quietly(unbuffered):
    proc = _run_with_stdout_closed(["group-check", "--samples", "1"], unbuffered)
    assert cli.EXIT_CLOSED_STDOUT not in (0, 1, 2)
    assert proc.returncode == cli.EXIT_CLOSED_STDOUT
    assert proc.stderr == b""


def test_help_into_a_closed_stdout_ends_quietly():
    # argparse's own _print_message would drop the unbuffered write error and exit 0
    for unbuffered in ("", "1"):
        proc = _run_with_stdout_closed(["experiment", "sweep", "--help"], unbuffered)
        assert (proc.returncode, proc.stderr) == (cli.EXIT_CLOSED_STDOUT, b"")


OUT_COMMANDS = {
    "group-check": ["group-check", "--samples", "1"],
    "rep-check": ["rep-check", "--trials", "1"],
    "bell-check": ["bell-check", "--trials", "1"],
    "orbit": ["orbit", "1", "0", "0", "1"],
    "experiment-run": ["experiment", "run", "--trials", "100"],
    "experiment-sweep": ["experiment", "sweep", "--trials", "100", "--points", "3"],
}


@pytest.mark.parametrize("out", ["missing/report", "directory", ""],
                         ids=["missing-directory", "existing-directory", "empty"])
@pytest.mark.parametrize("argv", OUT_COMMANDS.values(), ids=OUT_COMMANDS.keys())
def test_an_unwritable_out_is_an_input_error(argv, out, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "directory").mkdir()
    assert run_cli([*argv, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert repr(out) in captured.err and "Traceback" not in captured.err
    assert [p.name for p in tmp_path.rglob("*")] == ["directory"]


@pytest.mark.parametrize("argv", [OUT_COMMANDS["experiment-run"],
                                  OUT_COMMANDS["experiment-sweep"]], ids=["run", "sweep"])
def test_an_unwritable_manifest_leaves_no_csv(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.csv.manifest.json").mkdir()
    assert run_cli([*argv, "--out", "x.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "x.csv.manifest.json" in captured.err
    assert [p.name for p in tmp_path.rglob("*")] == ["x.csv.manifest.json"]


def test_rep_check_passes(capsys):
    assert run_cli(["rep-check", "--grid-size", "12", "--trials", "25"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_rep_check_grid_size_one(capsys):
    assert run_cli(["rep-check", "--grid-size", "1", "--trials", "10"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_rep_check_zero_helicity(capsys):
    assert run_cli(["rep-check", "--helicity", "0", "--trials", "10"]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("helicity", ["1000", "-1000"])
def test_rep_check_passes_at_the_helicity_bound(helicity, capsys):
    assert run_cli(["rep-check", "--helicity", helicity]) == 0
    assert "FAIL" not in capsys.readouterr().out


# 1e6 fails the axial homomorphism row by rounding alone; 10**400 overflows a float
@pytest.mark.parametrize("helicity", ["1000001", str(10 ** 6), str(10 ** 400)])
def test_rep_check_rejects_a_helicity_past_the_bound_naming_it(helicity, capsys):
    assert run_cli(["rep-check", "--helicity", helicity]) == 2
    err = capsys.readouterr().err
    assert "helicity" in err and "Traceback" not in err


def test_rep_check_notes_the_rows_without_a_boost(capsys):
    # at 4 points max_steps is 0, so every drawn boost is the identity
    assert run_cli(["rep-check", "--grid-size", "4", "--trials", "10", "--format", "json"]) == 0
    notes = {c["name"]: c["note"] for c in json.loads(capsys.readouterr().out)["checks"]}
    boosted = {"unitarity of every representation operator", "axial subgroup homomorphism",
               "covariance under both discrete conjugations"}
    assert {name for name, note in notes.items() if note} == boosted
    assert all("no boost exercised" in notes[name] for name in boosted)
    assert run_cli(["rep-check", "--grid-size", "5", "--trials", "10", "--format", "json"]) == 0
    assert not any(c["note"] for c in json.loads(capsys.readouterr().out)["checks"])


# 2**50 points: numpy refuses the 8 PiB array before allocating anything
@pytest.mark.parametrize("argv", [["experiment", "sweep", "--points", str(2 ** 50)],
                                  ["rep-check", "--grid-size", str(2 ** 50)]])
def test_a_size_too_large_to_allocate_exits_2(capsys, argv):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_bell_check_passes(capsys):
    assert run_cli(["bell-check", "--grid-size", "8", "--trials", "25"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_bell_check_rejects_a_grid_above_the_cap(capsys):
    # the cap is checked before anything is allocated
    assert run_cli(["bell-check", "--grid-size", str(2 ** 40), "--trials", "1"]) == 2
    assert "grid-size" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_bell_check_rejects_trials_below_one(capsys, trials):
    assert run_cli(["bell-check", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert "trials" in captured.err and "PASS" not in captured.out


@pytest.mark.parametrize("command", ["rep-check", "bell-check", "group-check"])
def test_check_commands_reject_a_negative_seed_naming_it(capsys, command):
    assert run_cli([command, "--seed", "-1"]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["rep-check", "--trials", "1"],
                                     ["bell-check", "--trials", "1"],
                                     ["group-check", "--samples", "1"]])
def test_check_commands_accept_a_seed_past_64_bits(capsys, command):
    assert run_cli([*command, "--seed", str(2 ** 100)]) == 0


def test_experiment_run_writes_csv_and_manifest(tmp_path, capsys):
    out_file = tmp_path / "run.csv"
    code = run_cli(["experiment", "run", "--phi", "0", "--trials", "50000",
                    "--seed", "42", "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "phi_rad,trials,kept,discarded,n_pp,n_pm,n_mp,n_mm,e_xx,stderr,expected"
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert float(cells[8]) == pytest.approx(1.0, abs=1e-9)
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert manifest["config"]["seed"] == 42
    assert manifest["config"]["trials"] == 50000
    assert "stream_rule" in manifest


def test_experiment_run_prints_csv_without_out(capsys):
    assert run_cli(["experiment", "run", "--phi", "0", "--trials", "1000",
                    "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("phi_rad,")


# The imperfection scans: visibility, phase noise, and dark counts below unit
# efficiency (at eta = 1 a lone dark click can never fake a coincidence).
SCANS = ([{"visibility": v} for v in (1.0, 0.9, 0.7, 0.5)]
         + [{"sigma": sigma} for sigma in (0.0, 0.3, 0.6, 1.0)]
         + [{"eta": 0.9, "dark": dark} for dark in (0.0, 0.005, 0.02, 0.05)])


@pytest.mark.parametrize("setting", SCANS,
                         ids=["-".join(f"{k}{v}" for k, v in s.items()) for s in SCANS])
def test_experiment_run_tracks_the_prediction_under_each_imperfection(setting, capsys):
    flags = [arg for key, value in setting.items() for arg in (f"--{key}", repr(value))]
    assert run_cli(["experiment", "run", "--trials", "200000", *flags]) == 0
    header, values = capsys.readouterr().out.strip().split("\n")
    row = dict(zip(header.split(","), values.split(",")))
    predicted = experiment.expected_correlation(0.0, **setting)
    assert float(row["expected"]) == predicted
    assert abs(float(row["e_xx"]) - predicted) <= 4 * float(row["stderr"])


def test_experiment_rerun_is_bitwise_identical(tmp_path):
    args = ["experiment", "run", "--phi", "0.7", "--visibility", "0.9",
            "--trials", "60000", "--seed", "9"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_experiment_workers_do_not_change_the_csv(tmp_path):
    base = ["experiment", "run", "--phi", "1.2", "--eta", "0.85",
            "--dark", "0.01", "--trials", "150000", "--seed", "3"]
    a, b = tmp_path / "w1.csv", tmp_path / "w4.csv"
    assert run_cli(base + ["--workers", "1", "--out", str(a)]) == 0
    assert run_cli(base + ["--workers", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# SHA-256 of the printed CSV under stream rule v2, recorded from the numpy-array
# form of the outcome law (commit 7b89f83).  The other CSV tests compare one run
# with another; these pin the draw and the law's rounding to a fixed reference.
STREAM_V2_GOLDEN = [
    pytest.param(["sweep", "--visibility", "0.9", "--sigma", "0.2", "--eta", "0.5",
                  "--dark", "0.05", "--trials", "262144", "--seed", "401", "--points", "17"],
                 "933dce37653e95f4f32a3070e1b479a9516111e8b4dfd6901544c10312c60196",
                 id="every-imperfection"),
    pytest.param(["sweep", "--visibility", "0.95", "--sigma", "0.1", "--trials", "4096",
                  "--seed", "7"],
                 "507a716e43fa4afaec494e144557c5d58e20e6d24c9fa2fcdf44e6452cbf6a9b",
                 id="ideal-detectors"),
    pytest.param(["sweep", "--eta", "0", "--dark", "0", "--trials", "1000", "--seed", "3"],
                 "86359591f931a503f13afe4dc5641acf5b44ba3b08dcbb6c8d1761c4be68f88d",
                 id="every-trial-discarded"),
    pytest.param(["run", "--trials", str(2 ** 63 - 1), "--phi", "0.7", "--visibility", "0.9",
                  "--eta", "0.8", "--dark", "0.01", "--seed", "5"],
                 "7a050aa57165306b7058b19e4092b9444657834fc8655cffd30916375590f443",
                 id="largest-trial-count"),
]


@pytest.mark.parametrize("argv, digest", STREAM_V2_GOLDEN)
def test_experiment_csv_matches_the_stream_v2_golden_digest(argv, digest, capsys):
    assert run_cli(["experiment", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_experiment_sweep_sign_flip(tmp_path):
    out_file = tmp_path / "sweep.csv"
    assert run_cli(["experiment", "sweep", "--points", "17", "--trials", "20000",
                    "--seed", "5", "--out", str(out_file)]) == 0
    lines = out_file.read_text().strip().split("\n")[1:]
    assert len(lines) == 17
    rows = [line.split(",") for line in lines]
    by_phi = {float(r[0]): float(r[8]) for r in rows}
    phis = sorted(by_phi)
    assert by_phi[phis[0]] > 0.5          # phi = 0
    assert by_phi[phis[8]] < -0.5         # phi = pi


def test_experiment_zero_efficiency_keeps_running(tmp_path, capsys):
    out_file = tmp_path / "dead.csv"
    code = run_cli(["experiment", "run", "--phi", "0", "--eta", "0",
                    "--trials", "500", "--seed", "1", "--out", str(out_file)])
    assert code == 0
    cells = out_file.read_text().strip().split("\n")[1].split(",")
    assert cells[8] == "" and cells[9] == "" and cells[10] == ""
    assert int(cells[3]) == 500
    assert "discarded" in capsys.readouterr().err


def _sweep_manifest(tmp_path, flags):
    out = tmp_path / "sweep.csv"
    assert run_cli(["experiment", "sweep", *flags, "--out", str(out)]) == 0
    return json.loads((tmp_path / "sweep.csv.manifest.json").read_text())


FIT_CONFIGS = [
    # a sweep records phi but draws its own phases: the prediction is still at phi = 0
    pytest.param({"phi": 0.7, "visibility": 0.7, "sigma": 0.5, "eta": 0.8, "dark": 0.02,
                  "trials": 5000, "seed": 12}, id="every-imperfection"),
    pytest.param({"visibility": 0.9, "sigma": 0.2, "eta": 0.5, "dark": 0.05,
                  "trials": 4 * 65536, "seed": 401}, id="mc-bulk"),
]


@pytest.mark.parametrize("values", FIT_CONFIGS)
def test_experiment_manifest_records_the_cosine_fit(values, tmp_path):
    flags = [arg for key, value in values.items() for arg in (f"--{key}", repr(value))]
    fit = _sweep_manifest(tmp_path, flags)["cosine_fit"]
    config = experiment.ExperimentConfig(**values)
    rows = experiment.sweep_phase(np.linspace(0.0, 2 * np.pi, 17), config)
    assert (fit["amplitude"], fit["stderr"]) == experiment.fit_cosine(rows)
    assert fit["prediction"] == experiment.expected_correlation(
        0.0, values["visibility"], values["sigma"], values["eta"], values["dark"])
    assert fit["z"] == (fit["amplitude"] - fit["prediction"]) / fit["stderr"]
    assert abs(fit["z"]) <= 4


# an even point count over [0, 2 pi] sweeps no phase at pi: no sign verdict
@pytest.mark.parametrize("points, phi_at_pi, e_xx_at_pi, signs_differ", [
    pytest.param("2", None, None, None, id="2-points"),
    pytest.param("4", None, None, None, id="4-points"),
    pytest.param("17", np.pi, -1.0, True, id="17-points"),
])
def test_experiment_sweep_compares_phi_zero_with_the_swept_pi_row(
        points, phi_at_pi, e_xx_at_pi, signs_differ, tmp_path):
    fit = _sweep_manifest(tmp_path, ["--points", points, "--trials", "2000"])["cosine_fit"]
    assert fit["e_xx_at_0"] == 1.0
    assert fit["phi_at_pi"] == phi_at_pi
    assert fit["e_xx_at_pi"] == e_xx_at_pi
    assert fit["signs_differ"] is signs_differ


def test_experiment_fit_z_is_null_when_the_stderr_is_zero(tmp_path):
    # ideal detectors at phi = 0 count every trial at D1 or D4: e_xx = 1, stderr 0
    fit = _sweep_manifest(tmp_path, ["--points", "1", "--trials", "1000"])["cosine_fit"]
    assert (fit["amplitude"], fit["stderr"], fit["prediction"]) == (1.0, 0.0, 1.0)
    assert fit["z"] is None


def test_experiment_sweep_with_every_trial_discarded_exits_0_with_a_null_fit(tmp_path, capsys):
    capsys.readouterr()
    fit = _sweep_manifest(tmp_path, ["--eta", "0", "--dark", "0", "--trials", "100"])["cosine_fit"]
    assert fit == dict.fromkeys(fit, None) | {"phi_at_pi": np.pi}
    err = capsys.readouterr().err
    assert err.count("all 100 trials discarded") == 17 and "Traceback" not in err


def test_experiment_sweep_of_zero_points_exits_2_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run_cli(["experiment", "sweep", "--points", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", [True, False])
def test_experiment_notes_a_fit_far_from_its_prediction(out, tmp_path, monkeypatch, capsys):
    argv = ["experiment", "sweep", "--visibility", "0.95", "--trials", "2000"]
    argv += ["--out", str(tmp_path / "sweep.csv")] if out else []
    assert run_cli(argv) == 0
    assert "note: fitted cosine amplitude" not in capsys.readouterr().err
    monkeypatch.setattr(experiment, "_expected", lambda config: 0.5)
    assert run_cli(argv) == 0
    err = capsys.readouterr().err
    assert err.count("note: fitted cosine amplitude") == 1
    assert "stderr from the prediction +0.50000" in err


def test_experiment_subcommands_take_exactly_the_config_fields():
    experiment_parser = cli.build_parser()._subparsers._group_actions[0].choices["experiment"]
    other = {"help", "config", "workers", "out", "start", "stop", "points"}
    for name, sub in experiment_parser._subparsers._group_actions[0].choices.items():
        flags = [a for a in sub._actions if a.dest not in other]
        assert tuple(a.dest for a in flags) == cli.CONFIG_KEYS, name
        assert [a.option_strings for a in flags] == [[f"--{key}"] for key in cli.CONFIG_KEYS]
        assert all(a.default is None for a in flags)


def test_experiment_rejects_out_of_range_flags(capsys):
    assert run_cli(["experiment", "run", "--phi", "0", "--visibility", "1.5"]) == 2
    assert "visibility" in capsys.readouterr().err


@pytest.mark.parametrize("flags, field", [
    (["--sigma", "nan"], "sigma"),
    (["--sigma", "inf"], "sigma"),
    (["--visibility", "nan"], "visibility"),
    (["--eta", "nan"], "eta"),
    (["--dark", "inf"], "dark"),
    (["--trials", str(2 ** 63)], "trials"),
    (["--seed", "-1"], "seed"),
    (["--seed", str(2 ** 64)], "seed"),
    (["--workers", "0"], "workers"),
    (["--phi", "nan"], "phi"),
    (["--trials", "0"], "trials"),
    (["--sigma", "-1"], "sigma"),
])
def test_experiment_rejects_bad_inputs_naming_the_field(flags, field, capsys):
    assert run_cli(["experiment", "run", "--trials", "1000"] + flags) == 2
    captured = capsys.readouterr()
    assert field in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flags, field", [
    (["--points", "0"], "points"),
    (["--points", "-1"], "points"),
    (["--stop", "inf"], "stop"),
    (["--start", "nan"], "start"),
    (["--start", "-1e308", "--stop", "1e308"], "stop - start"),
])
def test_experiment_sweep_rejects_bad_ranges_naming_the_flag(flags, field, capsys):
    assert run_cli(["experiment", "sweep", "--trials", "100"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {field} ")
    assert "Warning" not in captured.err
    assert captured.out == ""


def test_experiment_config_file_rejects_bools(tmp_path, capsys):
    for key in ("trials", "seed"):
        config = tmp_path / f"{key}.json"
        config.write_text(json.dumps({"phi": 0.0, key: True}))
        assert run_cli(["experiment", "run", "--config", str(config)]) == 2
        assert key in capsys.readouterr().err


def test_experiment_config_file_with_flag_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"phi": 0.0, "trials": 2000, "seed": 8,
                                  "visibility": 0.5}))
    out_file = tmp_path / "run.csv"
    assert run_cli(["experiment", "run", "--config", str(config),
                    "--visibility", "1.0", "--out", str(out_file)]) == 0
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    assert manifest["config"]["visibility"] == 1.0  # flag wins
    assert manifest["config"]["trials"] == 2000


def test_experiment_manifest_reruns_reproduce_the_csv(tmp_path):
    first = tmp_path / "first.csv"
    assert run_cli(["experiment", "run", "--phi", "0.3", "--trials", "30000",
                    "--seed", "21", "--out", str(first)]) == 0
    manifest = json.loads((tmp_path / "first.csv.manifest.json").read_text())
    assert manifest["stream_version"] == 2
    second = tmp_path / "second.csv"
    assert run_cli(["experiment", "run",
                    "--config", str(tmp_path / "first.csv.manifest.json"),
                    "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_experiment_refuses_a_manifest_from_another_stream_version(tmp_path, capsys):
    first = tmp_path / "first.csv"
    assert run_cli(["experiment", "run", "--phi", "0.3", "--trials", "3000",
                    "--seed", "21", "--out", str(first)]) == 0
    manifest = json.loads((tmp_path / "first.csv.manifest.json").read_text())
    capsys.readouterr()
    v1 = dict(manifest)
    del v1["stream_version"]  # v1 manifests had no version field
    for doc in (v1, dict(manifest, stream_version=3)):
        path = tmp_path / "old.manifest.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["experiment", "run", "--config", str(path),
                        "--out", str(tmp_path / "rerun.csv")]) == 2
        assert "stream_version" in capsys.readouterr().err
        assert not (tmp_path / "rerun.csv").exists()


def test_experiment_unknown_config_key_is_pointed_at(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"phi": 0.0, "gain": 2.0}))
    assert run_cli(["experiment", "run", "--config", str(config)]) == 2
    assert "gain" in capsys.readouterr().err


def test_experiment_malformed_config_rejected(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    assert run_cli(["experiment", "run", "--config", str(config)]) == 2
    assert "malformed" in capsys.readouterr().err
