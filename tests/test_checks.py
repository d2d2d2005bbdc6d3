"""Working-set bounds and the block loop of the check suites."""

import math
import tracemalloc
import zlib

import numpy as np
import pytest

from extpoincare import checks, doublet, qubit


def _traced_peak(fn, *args) -> int:
    fn(*args)  # warm-up: lazy imports and caches are not part of the working set
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_complex_draw_matches_the_sum_of_two_normal_draws_bit_for_bit():
    # real part plus i times imaginary part, the two interleaved in one normal
    # draw; below, at and above TRIAL_BLOCK values
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    block = checks.TRIAL_BLOCK
    for shape in ((7,), (2, 2), (33, 33), (block,), (2, block // 2), (block + 1,),
                  (3, 65, 64), (300, 300)):
        got = checks._complex_normal(rng, shape)
        parts = twin.standard_normal((*shape, 2))
        want = parts[..., 0] + 1j * parts[..., 1]
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert rng.standard_normal() == twin.standard_normal()


# rows replayed in blocks of ROW_BLOCK rows, then a one-row tail, drawn in turn
# from one stream, equal the whole draw stored at once: each entry takes its
# real part, then its imaginary part
@pytest.mark.parametrize("n", [65, 257, 300, 1024])
def test_replayed_rows_equal_the_stored_draw_bit_for_bit(n):
    rng, twin, raw = (checks._stream(n, "row", "a1") for _ in range(3))
    edges = [*range(0, n - 1, checks.ROW_BLOCK), n - 1, n]
    got = np.concatenate([checks._complex_normal(rng, (hi - lo, n))
                          for lo, hi in zip(edges, edges[1:])])
    for want in (checks._complex_normal(twin, (n, n)), raw.standard_normal((n, 2 * n))):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert got.dtype == complex and got.shape == (n, n)
    assert rng.standard_normal() == twin.standard_normal() == raw.standard_normal()


@pytest.mark.parametrize("interior", [0, 1, 3])
def test_random_doublet_draws_the_bits_of_two_complex_normal_draws(interior):
    # the forward row's entries, then the backward row's, each real then imaginary
    grid = doublet.FrequencyGrid(1.0, 1.25, 9)
    rng, twin, raw = (np.random.default_rng(11) for _ in range(3))
    for _ in range(3):
        got = checks._random_doublet(rng, grid, interior).amps
        want = np.array([checks._complex_normal(twin, 9), checks._complex_normal(twin, 9)])
        assert np.array_equal(want.view(np.uint64), raw.standard_normal((2, 18)).view(np.uint64))
        if interior:
            want[:, :interior] = 0.0
            want[:, 9 - interior:] = 0.0
        want = want / np.linalg.norm(want)
        assert got.shape == want.shape and not got.flags.writeable
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert rng.standard_normal() == twin.standard_normal()


# rep-check's five sampled rows share one draw of states; bell-check's
# sampled rows draw s1 and s2, and only its entropy row draws states
STATE_DRAWS = {"rep": 1, "bell": 1}

# the rows whose names key each suite's streams: rows evaluated together draw
# under their first row's name, so bell-check's expectations row and every
# sampled group-check row but the cone row key none
STREAM_ROWS = {
    "rep": ["unitarity of every representation operator", "swap eigenstates carry their labels"],
    "bell": ["sector isometry preserves inner products", "swap eigenstates give correlation +-1",
             "entanglement entropy hits 0 and ln 2 at the extremes"],
    "group-momentum": ["aligned representative maps to its negative"],
    "group-coordinate": ["aligned representative is fixed"],
    "eta-table": ["conjugated generator eta deviations"],
}


@pytest.mark.parametrize("suite, run", [
    ("rep", lambda: checks.rep_checks(16, 1, 5, 3)),
    ("bell", lambda: checks.bell_checks(8, 5, 3)),
    ("group-momentum", lambda: checks.group_checks("momentum", 5, 3)),
    ("group-coordinate", lambda: checks.group_checks("coordinate", 5, 3)),
    ("eta-table", lambda: checks.ad_eta_table("momentum", 3))])
def test_each_row_and_quantity_has_one_stream_keyed_by_the_row_name(monkeypatch, suite, run):
    keys, stream = [], checks._stream

    def recording(*args):
        rng = stream(*args)
        keys.append(rng.bit_generator.seed_seq.spawn_key)
        return rng
    monkeypatch.setattr(checks, "_stream", recording)
    run()
    assert len(keys) == len(set(keys)) > 0
    assert {row for row, _ in keys} == {zlib.crc32(name.encode()) for name in STREAM_ROWS[suite]}
    states = [q for _, q in keys].count(zlib.crc32(b"states"))
    assert states == STATE_DRAWS.get(suite, 0), suite


def test_expectations_row_takes_the_dictionary_rows_a2(monkeypatch):
    # one block of 5 trials at N = 8; the first call is the sampled row's,
    # the swap-eigenstate row's come after it
    seen, equality = [], qubit.expectation_equality

    def recording(s, a, b):
        seen.append(np.array(a))
        return equality(s, a, b)
    monkeypatch.setattr(qubit, "expectation_equality", recording)
    checks.bell_checks(8, 5, 3)
    want = checks._complex_normal(
        checks._stream(3, "sector isometry preserves inner products", "a2"), (5, 8, 8))
    assert seen[0].shape == want.shape
    assert np.array_equal(seen[0].view(np.uint64), want.view(np.uint64))


def test_rep_rows_build_their_states_from_one_draw_per_block(monkeypatch):
    # blocks of 2, 2 and 1 trials; the five sampled rows build one state per
    # padding (max_steps, 2 * max_steps, 0) from the block's draw, so the
    # three inputs agree wherever no row pads
    n, pad = 16, 6  # the homomorphism row pads 2 * max_steps = 6 points at each end
    monkeypatch.setattr(checks, "TRIAL_BLOCK", 2 * n)
    inputs, doublets = [], checks._doublets

    def recording(grid, amps, interior=0):
        inputs.append(amps.copy())
        return doublets(grid, amps, interior)
    monkeypatch.setattr(checks, "_doublets", recording)
    assert all(r.passed for r in checks.rep_checks(n, 1, 5, 3))
    assert [len(a) for a in inputs] == 3 * [2] + 3 * [2] + 3 * [1]
    blocks = [inputs[i:i + 3] for i in range(0, len(inputs), 3)]
    for block in blocks:
        first = block[0][..., pad:n - pad]
        assert all(np.array_equal(a[..., pad:n - pad].view(np.uint64), first.view(np.uint64))
                   for a in block[1:])
    # the draw is the states quantity of the first row's stream, in trial order
    want = checks._complex_normal(
        checks._stream(3, "unitarity of every representation operator", "states"), (5, 2, n))
    got = np.concatenate([block[0] for block in blocks])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# (suite, lattice points, matrix entries or group samples per trial) at the
# default sizes
BLOCKED_SUITES = {"rep": (lambda trials: checks.rep_checks(16, 1, trials, 4), 16),
                  "bell": (lambda trials: checks.bell_checks(8, trials, 4), 64),
                  "group": (lambda samples: checks.group_checks("momentum", samples, 4), 1)}


@pytest.mark.parametrize("suite", BLOCKED_SUITES)
@pytest.mark.parametrize("block", [1, 7])
def test_rep_and_bell_rows_do_not_depend_on_the_block_size(monkeypatch, suite, block):
    run, per_trial = BLOCKED_SUITES[suite]
    default = run(20)
    monkeypatch.setattr(checks, "TRIAL_BLOCK", block * per_trial)
    assert run(20) == default


# a row holds one block and the previous block's draws and states, so the
# peak is flat from two blocks on
@pytest.mark.parametrize("suite", ["rep", "bell"])
def test_rep_and_bell_peaks_do_not_grow_with_trials(suite):
    run, per_trial = BLOCKED_SUITES[suite]
    block = checks.TRIAL_BLOCK // per_trial
    assert _traced_peak(run, 6 * block) <= 1.25 * _traced_peak(run, 2 * block)


def test_rep_checks_hold_about_27_grid_vectors():
    # 12.8 to 12.9 complex N-vectors (0.84 MB) traced at N = 4096, for any
    # number of trials
    n = 4096
    assert _traced_peak(checks.rep_checks, n, 1, 3, 0) <= 16 * 16 * n


# a1 @ a2 formed one row block at a time keeps the bits of the full product;
# 65, 129 to 131, 257, 258 and 513 leave a tail of one to three rows, which
# joins the block before it
@pytest.mark.parametrize("stack", [(), (2,)])
@pytest.mark.parametrize("n", [8, 46, 65, 129, 130, 131, 257, 258, 513, 1024])
def test_blocked_product_equals_the_full_product_bit_for_bit(n, stack):
    rng = np.random.default_rng(n)
    a, b = (checks._complex_normal(rng, stack + (n, n)) for _ in range(2))
    want = a @ b
    got = np.concatenate([a[..., rows, :] @ b for rows in checks._row_slices(n)], axis=-2)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_bell_checks_keep_one_dense_matrix_and_a_row_block():
    # 1.25 matrices traced at N = 640: a2, and ROW_BLOCK rows of a1 and of
    # a1 @ a2; a block of a1's rows kept while the next is drawn reads 1.34
    n = 640
    assert _traced_peak(checks.bell_checks, n, 2, 0) <= 1.3 * 16 * n * n


def test_bell_checks_peak_does_not_grow_from_one_trial_to_two():
    # each dense row frees a trial's matrices before the next trial draws its own
    n = 640
    one = _traced_peak(checks.bell_checks, n, 1, 0)
    assert _traced_peak(checks.bell_checks, n, 2, 0) <= one + 0.1 * 16 * n * n


def test_group_checks_peak_does_not_grow_with_samples():
    one = _traced_peak(checks.group_checks, "momentum", checks.TRIAL_BLOCK, 0)
    three = _traced_peak(checks.group_checks, "momentum", 3 * checks.TRIAL_BLOCK, 0)
    assert three <= 1.25 * one


def test_group_checks_past_one_block_keep_every_row():
    one = checks.group_checks("coordinate", checks.TRIAL_BLOCK, 3)
    more = checks.group_checks("coordinate", checks.TRIAL_BLOCK + 1, 3)
    assert [(r.name, r.tolerance, r.note) for r in more] == \
        [(r.name, r.tolerance, r.note) for r in one]
    assert all(r.passed for r in more)


def _synthetic_rows(monkeypatch, values_per_block, per_block=2):
    """_sampled_rows on a deviation row and a count row, with the given values per block.

    Each block draws one uniform per trial in one call; the rows' values are
    replaced by values_per_block[b] for block b, so only the folding of
    _sampled_rows is tested.
    """
    monkeypatch.setattr(checks, "TRIAL_BLOCK", per_block)
    seen = []

    def evaluate(blocks):
        for b, (count, x) in enumerate(blocks):
            seen.append(x)
            deviation, failed = values_per_block[b]
            yield [np.full(count, deviation), np.arange(count) < failed]

    rows = [("deviation", 1e-12, "a note"), ("count", 0.0, "")]
    trials = per_block * (len(values_per_block) - 1) + 1
    results = checks._sampled_rows(rows, 7, trials, 1, evaluate,
                                   x=lambda rng, count: rng.uniform(size=count))
    # blocks of per_block trials, the last of one, drawn in turn from the
    # quantity's stream, keyed by the first row's name
    assert [len(x) for x in seen] == [per_block] * (len(values_per_block) - 1) + [1]
    assert np.array_equal(np.concatenate(seen),
                          checks._stream(7, "deviation", "x").uniform(size=trials))
    return results


def test_an_extra_quantity_leaves_every_other_quantitys_draws_in_place(monkeypatch):
    # blocks of 3, 3 and 2 trials; a quantity declared before, between or
    # after the others draws from its own stream and moves none of theirs
    monkeypatch.setattr(checks, "TRIAL_BLOCK", 3)

    def draws(**quantities):
        seen = []

        def evaluate(blocks):
            for count, *values in blocks:
                seen.append(values)
                yield [np.zeros(count)]
        checks._sampled_rows([("row", 0.0, "")], 7, 8, 1, evaluate, **quantities)
        return {name: np.concatenate([v[i] for v in seen]) for i, name in enumerate(quantities)}

    def x(rng, count):
        return rng.uniform(size=count)

    def y(rng, count):
        return rng.standard_normal((count, 2))

    def extra(rng, count):
        return rng.integers(0, 9, count)
    want = draws(x=x, y=y)
    for got in (draws(extra=extra, x=x, y=y), draws(x=x, extra=extra, y=y),
                draws(x=x, y=y, extra=extra)):
        for name, values in want.items():
            assert np.array_equal(got[name].view(np.uint64), values.view(np.uint64)), name


def test_sampled_rows_add_counts_and_keep_the_worst_deviation(monkeypatch):
    dev, count = _synthetic_rows(monkeypatch, [(1e-15, 1), (3e-13, 0), (2e-16, 1)])
    assert dev == checks.CheckResult("deviation", True, 3e-13, 1e-12, "a note")
    assert count == checks.CheckResult("count", False, 2.0, 0.0, "")


@pytest.mark.parametrize("nan_block", [0, 1, 2])
def test_a_nan_in_any_block_fails_the_row(monkeypatch, nan_block):
    values = [(1e-15, 0)] * 3
    values[nan_block] = (math.nan, 0)
    dev, count = _synthetic_rows(monkeypatch, values)
    assert math.isnan(dev.max_deviation) and not dev.passed
    assert count.passed and count.max_deviation == 0.0


def test_a_count_row_without_failures_passes_at_zero(monkeypatch):
    _, count = _synthetic_rows(monkeypatch, [(0.0, 0)] * 2)
    assert count == checks.CheckResult("count", True, 0.0, 0.0, "")
    assert type(count.max_deviation) is float


# each failed the associativity row under an absolute measure: a correct
# product with entries up to 1e4 missed 1e-12 by about one ulp of its largest
# entry.  3824 and 5057 reach a gap of 1.8e-12 under check stream v1; the
# first four did under the shared generator before it, and now pass as plain seeds
@pytest.mark.parametrize("seed", [463, 1352, 1406201168, 1497811366, 3824, 5057])
def test_product_associativity_is_measured_relative_to_the_product(seed):
    row = {r.name: r for r in checks.group_checks(seed=seed)}["product associativity"]
    assert row.passed, row
    assert row.note == "deviation relative to 1 + the product's largest entry"


# each failed the orbit-class row on a correct program: one sample lay inside
# classify_orbit's Euclidean-relative band in the boosted frame only.  Under
# check stream v1 that happens at 1844 and 19571 (momentum) and 30074 and
# 42369 (coordinate); the first four did under the shared generator before
# it, in both conventions (1121639274 was the group seed of a default
# benchmark pass), and now pass as plain seeds
@pytest.mark.parametrize("convention", ["momentum", "coordinate"])
@pytest.mark.parametrize("seed", [5238, 10716, 15445, 1121639274, 1844, 19571, 30074, 42369])
def test_orbit_class_row_skips_samples_inside_the_band_in_either_frame(seed, convention):
    row = {r.name: r for r in checks.group_checks(convention, seed=seed)}[checks.ORBIT_CLASS_ROW]
    assert row.passed and row.max_deviation == 0.0, row
