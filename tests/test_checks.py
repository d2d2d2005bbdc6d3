"""Working-set bounds and block folding of the check suites."""

import math
import tracemalloc

import numpy as np

from extpoincare import checks


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
