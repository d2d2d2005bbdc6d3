import json

import pytest

from extpoincare import cli


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


def test_bell_check_passes(capsys):
    assert run_cli(["bell-check", "--grid-size", "8", "--trials", "25"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


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
])
def test_experiment_rejects_bad_inputs_naming_the_field(flags, field, capsys):
    assert run_cli(["experiment", "run", "--trials", "1000"] + flags) == 2
    captured = capsys.readouterr()
    assert field in captured.err
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
