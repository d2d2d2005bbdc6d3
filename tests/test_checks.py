"""Working-set bounds and block folding of the check suites."""

import math
import tracemalloc

import numpy as np
import pytest

from extpoincare import checks, doublet


def _traced_peak(fn, *args) -> int:
    fn(*args)  # warm-up: lazy imports and caches are not part of the working set
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_complex_draw_matches_the_sum_of_two_normal_draws_bit_for_bit():
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    for shape in (7, (2, 2), (33, 33)):
        got = checks._complex_normal(rng, shape)
        want = twin.standard_normal(shape) + 1j * twin.standard_normal(shape)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert rng.standard_normal() == twin.standard_normal()


@pytest.mark.parametrize("interior", [0, 1, 3])
def test_random_doublet_draws_the_bits_of_two_complex_normal_draws(interior):
    grid = doublet.FrequencyGrid(1.0, 1.25, 9)
    rng, twin = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(3):
        got = checks._random_doublet(rng, grid, interior).amps
        want = np.array([checks._complex_normal(twin, 9), checks._complex_normal(twin, 9)])
        if interior:
            want[:, :interior] = 0.0
            want[:, 9 - interior:] = 0.0
        want = want / np.linalg.norm(want)
        assert got.shape == want.shape and not got.flags.writeable
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert rng.standard_normal() == twin.standard_normal()


def test_rep_checks_hold_about_27_grid_vectors():
    # 26.6 complex N-vectors (1.75 MB) traced at N = 4096, for any number of trials
    n = 4096
    assert _traced_peak(checks.rep_checks, n, 1, 3, 0) <= 28 * 16 * n


def test_bell_checks_keep_at_most_three_dense_matrices():
    n = 256
    assert _traced_peak(checks.bell_checks, n, 2, 0) <= 3.5 * 16 * n * n


def test_group_checks_peak_does_not_grow_with_samples():
    one = _traced_peak(checks.group_checks, "momentum", checks.GROUP_BLOCK, 0)
    three = _traced_peak(checks.group_checks, "momentum", 3 * checks.GROUP_BLOCK, 0)
    assert three <= 1.25 * one


def test_group_checks_past_one_block_keep_every_row():
    one = checks.group_checks("coordinate", checks.GROUP_BLOCK, 3)
    more = checks.group_checks("coordinate", checks.GROUP_BLOCK + 1, 3)
    assert [(r.name, r.tolerance, r.note) for r in more] == \
        [(r.name, r.tolerance, r.note) for r in one]
    assert all(r.passed for r in more)


def test_block_fold_adds_counts_and_keeps_a_nan_deviation():
    two = checks.CheckResult(checks.ORBIT_CLASS_ROW, False, 2.0, 0.0)
    three = checks.CheckResult(checks.ORBIT_CLASS_ROW, False, 3.0, 0.0)
    assert checks._fold(two, three).max_deviation == 5.0
    nan = checks.CheckResult("product associativity", False, math.nan, 1e-12)
    fine = checks.CheckResult("product associativity", True, 1e-15, 1e-12)
    for folded in (checks._fold(nan, fine), checks._fold(fine, nan)):
        assert math.isnan(folded.max_deviation) and not folded.passed
    assert checks._fold(fine, fine).passed


# each failed the associativity row under an absolute measure: a correct
# product with entries up to 1e4 missed 1e-12 by about one ulp of its largest entry
@pytest.mark.parametrize("seed", [463, 1352, 1406201168, 1497811366])
def test_product_associativity_is_measured_relative_to_the_product(seed):
    row = {r.name: r for r in checks.group_checks(seed=seed)}["product associativity"]
    assert row.passed, row
    assert row.note == "deviation relative to 1 + the product's largest entry"


# each failed the orbit-class row on a correct program: one sample lay inside
# classify_orbit's Euclidean-relative band in the boosted frame only
# (1121639274 is the group seed of a default benchmark pass)
@pytest.mark.parametrize("convention", ["momentum", "coordinate"])
@pytest.mark.parametrize("seed", [5238, 10716, 15445, 1121639274])
def test_orbit_class_row_skips_samples_inside_the_band_in_either_frame(seed, convention):
    row = {r.name: r for r in checks.group_checks(convention, seed=seed)}[checks.ORBIT_CLASS_ROW]
    assert row.passed and row.max_deviation == 0.0, row
