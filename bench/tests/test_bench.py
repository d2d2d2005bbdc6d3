"""Tests of the benchmark's own code; run with ``python3 -m pytest bench/tests -q``."""

from __future__ import annotations

import json
import math
import re
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from extpoincare import experiment  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _module():
    mod = types.ModuleType("fake")

    def double(x):
        return 2 * x

    def boom():
        raise KeyError("boom")

    def outer(x):
        return mod.double(x) + 1

    mod.double, mod.boom, mod.outer = double, boom, outer
    return mod


def test_wrappers_preserve_results_and_exceptions_and_restore_attributes():
    mod = _module()
    originals = dict(vars(mod))
    tr = tracer.Tracer([(mod, "fake", ("double", "boom", "outer"))])
    with tr.installed():
        assert mod.double is not originals["double"]
        assert mod.outer(3) == 7
        with pytest.raises(KeyError, match="boom"):
            mod.boom()
    assert all(getattr(mod, k) is v for k, v in originals.items())
    assert [s[0] for s in tr.spans] == ["fake.outer", "fake.double", "fake.boom"]
    assert tr.spans[1][3] == 0 and tr.spans[2][3] == -1
    assert all(s[2] >= s[1] for s in tr.spans)


def test_attributes_restored_when_the_block_raises():
    mod = _module()
    original = mod.double
    with pytest.raises(RuntimeError):
        with tracer.Tracer([(mod, "fake", ("double",))]).installed():
            raise RuntimeError
    assert mod.double is original


def test_attributes_restored_when_a_target_is_missing():
    mod = _module()
    original = mod.double
    with pytest.raises(AttributeError):
        with tracer.Tracer([(mod, "fake", ("double", "absent"))]).installed():
            pass
    assert mod.double is original


def test_clocked_records_each_call_and_restores():
    mod = _module()
    original, sink = mod.double, []
    with tracer.clocked(mod, "double", sink):
        assert mod.outer(1) == 3
    assert len(sink) == 1 and mod.double is original


def test_self_time_on_a_nested_span_tree():
    # root [0, 10] has children [1, 4] and [5, 9]; the second has a child [6, 8]
    spans = [["a.root", 0.0, 10.0, -1, 1],
             ["a.left", 1.0, 4.0, 0, 1],
             ["a.right", 5.0, 9.0, 0, 1],
             ["a.leaf", 6.0, 8.0, 2, 1]]
    assert tracer.self_times(spans) == [3.0, 3.0, 2.0, 2.0]
    assert tracer.self_times(spans, 2) == [2.0, 2.0]
    layers = {"a": ("root", "left", "right", "leaf")}
    m = tracer.layer_metrics(spans, layers=layers)
    assert m["a.calls"] == 4 and m["a.self_s"] == 10.0
    assert m["a.right.self_s"] == 2.0 and m["a.root.calls"] == 1


def test_self_time_counts_overlapping_children_once():
    spans = [["a.root", 0.0, 10.0, -1, 1],
             ["a.x", 2.0, 6.0, 0, 1],
             ["a.y", 4.0, 12.0, 0, 1]]
    assert tracer.self_times(spans)[0] == 2.0


@pytest.mark.parametrize("phi", [0.0, 0.4, 1.7, math.pi, 5.5])
def test_oracle_matches_expected_correlation_with_ideal_detectors(phi):
    assert oracles.kept_correlation(phi, 0.9, 0.2, eta=1.0, dark=0.0) == pytest.approx(
        experiment.expected_correlation(phi, 0.9, 0.2), abs=1e-15)


def test_oracle_dilution_by_dark_counts():
    assert oracles.kept_correlation(0.0, eta=0.5, dark=0.05) == pytest.approx(0.8333, abs=5e-5)


def test_orbit_oracle_on_the_readme_example():
    images = oracles.orbit_images([1.0, 0, 0, 0], 0.0, 0.0)
    assert images["lambda-inf"].tolist() == [0.0, 0.0, 0.0, -1.0]
    assert [oracles.orbit_class(images[z]) for z in ("I", "-I", "lambda-inf")] == [
        "massive-forward", "massive-backward", "tachyonic"]


def test_metric_names_are_well_formed_and_match_benchmark_json():
    names = list(run.E2E_UNITS) + list(run.per_layer_units())
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer_units())
    assert [w["name"] for w in spec["workloads"]] == list(run.workloads.WORKLOADS)
    assert all(m["unit"] == run.E2E_UNITS[m["name"]] for m in spec["end_to_end"])
    assert all(m["unit"] == run.per_layer_units()[m["name"]] for m in spec["per_layer"])


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail(list(range(1000)))[1] == "p99"
    assert run.tail(list(range(100)))[1] == "p90"
    assert run.tail(list(range(19))) == (18.0, "max")
    assert run.tail(list(range(1000)), top=95.0)[1] == "p95"
    assert run.tail(list(range(150)), top=95.0)[1] == "p90"
