import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from extpoincare import checks, doublet, group
from extpoincare.doublet import (
    AxialElement,
    DoubletState,
    FrequencyGrid,
    apply_axial_boost,
    apply_axial_rotation,
    apply_translation,
    apply_u_lambda_inf,
    apply_u_minus_i,
    check_covariance,
    doublet_from_json,
    doublet_to_json,
    make_epsilon_eigenstate,
)


GRID = FrequencyGrid(1.0, 1.25, 16)


def test_grid_is_log_spaced_and_increasing():
    w = GRID.omegas
    assert np.all(w > 0)
    assert np.all(np.diff(w) > 0)
    ratios = w[1:] / w[:-1]
    assert np.max(np.abs(ratios - GRID.ratio)) < 1e-12


def test_grid_validation():
    with pytest.raises(ValueError):
        FrequencyGrid(-1.0, 1.25, 4)
    with pytest.raises(ValueError):
        FrequencyGrid(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        FrequencyGrid(1.0, 1.25, 0)


@pytest.mark.parametrize("field, value", [
    ("omega_min", math.nan), ("omega_min", math.inf), ("ratio", math.nan),
    ("ratio", math.inf), ("theta", math.nan), ("phi", -math.inf),
])
def test_grid_rejects_non_finite_fields(field, value):
    kwargs = {"omega_min": 1.0, "ratio": 1.25, "count": 4, field: value}
    with pytest.raises(ValueError, match=field):
        FrequencyGrid(**kwargs)


@given(st.floats(), st.floats(), st.integers(1, 64), st.floats(), st.floats())
def test_grid_inputs_are_rejected_or_give_finite_output(omega_min, ratio, count, theta, phi):
    try:
        grid = FrequencyGrid(omega_min, ratio, count, theta=theta, phi=phi)
    except ValueError:
        return
    assert math.isfinite(grid.step()) and grid.step() > 0
    assert np.all(np.isfinite(grid.direction))
    with np.errstate(over="ignore"):
        w = grid.omegas
    # only a lattice whose omega_min * ratio**i passes the float range
    # (e**709.78) reaches inf
    assert np.all(w > 0) and not np.any(np.isnan(w))
    if math.log(omega_min) + (count - 1) * grid.step() < 700:
        assert np.all(np.isfinite(w))


def test_grid_frequencies_stay_finite_when_only_the_ratio_power_overflows():
    # 1e10**39 overflows, 1e-300 * 1e10**39 = 1e90 does not
    w = FrequencyGrid(1e-300, 1e10, 40).omegas
    assert np.all(np.isfinite(w))
    assert w[-1] == pytest.approx(1e90, rel=1e-12)
    assert np.array_equal(w[:31], 1e-300 * 1e10 ** np.arange(31))


def test_grid_frequencies_are_computed_once_and_read_only():
    grid = FrequencyGrid(1.0, 1.25, 8, theta=0.8, phi=2.1)
    assert grid.omegas is grid.omegas
    assert grid.direction is grid.direction
    assert grid._coordinate_swap is grid._coordinate_swap
    assert np.array_equal(grid._coordinate_swap, group.coordinate_swap(0.8, 2.1))
    for cached in (grid.omegas, grid.direction, grid._coordinate_swap):
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0.0


def test_rep_checks_fail_when_an_overflowing_lattice_gives_nan():
    # omega = 1.25**4095 overflows, so translation phases on that lattice are
    # NaN; the suite helpers must turn the NaN into a FAIL row
    rng = np.random.default_rng(0)
    grid = FrequencyGrid(1.0, 1.25, 4096)
    s = checks._random_doublet(rng, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        moved = apply_translation(s, rng.uniform(-3, 3, 4))
        deviations = (checks._dist([0.0, abs(moved.norm() - s.norm())]),
                      checks._dist(moved.amps, s.amps))
    for dev in deviations:
        row = checks._result("unitarity of every representation operator", dev, 1e-12)
        assert not row.passed and math.isnan(row.max_deviation)


def test_rep_checks_pass_on_a_large_grid():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = checks.rep_checks(4096)
    assert all(r.passed for r in results), results


def test_translation_identity():
    rng = np.random.default_rng(0)
    s = checks._random_doublet(rng, GRID)
    out = apply_translation(s, np.zeros(4))
    assert np.max(np.abs(out.psi_fwd - s.psi_fwd)) == 0.0
    assert np.max(np.abs(out.psi_bwd - s.psi_bwd)) == 0.0


def test_translation_single_point_phase():
    grid = FrequencyGrid(1.0, 2.0, 1)
    s = DoubletState(grid, [1.0], [1.0])
    out = apply_translation(s, np.array([np.pi, 0.0, 0.0, 0.0]))
    # eta(p, a) = +pi forward, -pi backward: both amplitudes flip sign
    assert out.psi_fwd[0] == pytest.approx(-1.0, abs=1e-12)
    assert out.psi_bwd[0] == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("n, theta, phi", [(16, 0.0, 0.0), (16, 0.8, 2.1), (4096, 0.0, 0.0),
                                            (4096, 0.8, 2.1)])
def test_translation_has_the_bits_of_the_complex_exponential(n, theta, phi):
    # the rep_checks lattice: its top frequency is checks.OMEGA_TOP
    ratio = min(1.25, checks.OMEGA_TOP ** (1.0 / (n - 1)))
    grid = FrequencyGrid(1.0, ratio, n, theta=theta, phi=phi)
    rng = np.random.default_rng(n)
    for _ in range(5):
        s = checks._random_doublet(rng, grid)
        a = rng.uniform(-3, 3, 4)
        x = grid.omegas * (a[0] - grid.direction @ a[1:])
        phases = np.exp(1j * x)
        want = s.amps * np.array([phases, np.conj(phases)])
        got = apply_translation(s, a).amps
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("a", [np.zeros(3), np.zeros(5), np.zeros((4, 3)), 0.0,
                               [math.nan, 0, 0, 0], [0, 0, math.inf, 0], [0, 0, 0, -math.inf]])
def test_translation_rejects_anything_but_a_finite_4_vector(a):
    s = checks._random_doublet(np.random.default_rng(0), GRID)
    with pytest.raises(ValueError, match="translation a must be a finite 4-vector"):
        apply_translation(s, a)


def test_translations_compose():
    rng = np.random.default_rng(1)
    for _ in range(100):
        s = checks._random_doublet(rng, GRID)
        a, b = rng.uniform(-3, 3, 4), rng.uniform(-3, 3, 4)
        two = apply_translation(apply_translation(s, a), b)
        one = apply_translation(s, a + b)
        assert np.max(np.abs(two.psi_fwd - one.psi_fwd)) < 1e-12
        assert np.max(np.abs(two.psi_bwd - one.psi_bwd)) < 1e-12


def test_rotation_periodicity_and_phase():
    rng = np.random.default_rng(2)
    s = checks._random_doublet(rng, GRID)
    full_turn = apply_axial_rotation(s, 2 * np.pi)
    assert np.max(np.abs(full_turn.psi_fwd - s.psi_fwd)) < 1e-12
    quarter = apply_axial_rotation(s, np.pi / 2)
    assert np.max(np.abs(quarter.psi_fwd - 1j * s.psi_fwd)) < 1e-12
    assert np.max(np.abs(quarter.psi_bwd - 1j * s.psi_bwd)) < 1e-12


def test_rotation_trivial_for_zero_helicity():
    grid = FrequencyGrid(1.0, 1.25, 8, helicity=0)
    rng = np.random.default_rng(3)
    s = checks._random_doublet(rng, grid)
    out = apply_axial_rotation(s, 1.2345)
    assert np.max(np.abs(out.psi_fwd - s.psi_fwd)) == 0.0


def test_boost_zero_is_identity():
    rng = np.random.default_rng(4)
    s = checks._random_doublet(rng, GRID)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = apply_axial_boost(s, 0.0)
    assert np.array_equal(out.psi_fwd, s.psi_fwd)
    assert np.array_equal(out.psi_bwd, s.psi_bwd)
    assert out.leaked_norm == 0.0


@pytest.mark.parametrize("rapidity", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_boost_rejects_a_non_finite_rapidity(rapidity):
    s = checks._random_doublet(np.random.default_rng(4), GRID)
    with pytest.raises(ValueError, match="rapidity must be finite"):
        apply_axial_boost(s, rapidity)


def test_boost_shifts_both_sectors_up_one_index():
    f = np.zeros(16, complex)
    b = np.zeros(16, complex)
    f[3] = 1.0
    b[5] = 0.5j
    s = DoubletState(GRID, f, b)
    out = apply_axial_boost(s, GRID.step())
    assert out.psi_fwd[4] == 1.0
    assert out.psi_bwd[6] == 0.5j
    assert out.leaked_norm == 0.0


def test_boost_roundtrip_on_interior_support():
    rng = np.random.default_rng(5)
    s = checks._random_doublet(rng, GRID, interior=4)
    chi = 3 * GRID.step()
    back = apply_axial_boost(apply_axial_boost(s, chi), -chi)
    assert np.max(np.abs(back.psi_fwd - s.psi_fwd)) < 1e-12
    assert np.max(np.abs(back.psi_bwd - s.psi_bwd)) < 1e-12


def test_off_lattice_boost_rejected_without_interpolation():
    rng = np.random.default_rng(6)
    s = checks._random_doublet(rng, GRID)
    with pytest.raises(ValueError, match="not an integer multiple of ln"):
        apply_axial_boost(s, 0.37 * GRID.step())


def test_boost_leak_reported_and_warned():
    f = np.zeros(4, complex)
    f[3] = 1.0
    s = DoubletState(FrequencyGrid(1.0, 1.25, 4), f, np.zeros(4))
    with pytest.warns(RuntimeWarning, match="off the lattice"):
        out = apply_axial_boost(s, s.grid.step())
    assert out.leaked_norm == pytest.approx(1.0)
    assert out.norm() == 0.0


def test_sector_swap_plain():
    rng = np.random.default_rng(7)
    s = checks._random_doublet(rng, GRID)
    out = apply_u_lambda_inf(s)
    assert np.array_equal(out.psi_fwd, s.psi_bwd)
    assert np.array_equal(out.psi_bwd, s.psi_fwd)


def test_sector_swap_carries_epsilon():
    rng = np.random.default_rng(9)
    s = checks._random_doublet(rng, GRID)
    for eps in (1, -1):
        out = apply_u_lambda_inf(s, eps)
        assert np.array_equal(out.psi_fwd, eps * s.psi_bwd)
        assert np.array_equal(out.psi_bwd, eps * s.psi_fwd)


def test_norm_of_a_nan_state_is_nan():
    f = np.ones(4, complex)
    f[2] = math.nan
    s = DoubletState(FrequencyGrid(1.0, 2.0, 4), f, np.ones(4))
    assert math.isnan(s.norm())
    assert DoubletState(FrequencyGrid(1.0, 2.0, 4), [3, 0, 0, 0], [4j, 0, 0, 0]).norm() == 5.0


def test_sector_swap_rejects_epsilon_other_than_plus_minus_one():
    s = checks._random_doublet(np.random.default_rng(9), GRID)
    for eps in (0, 2, -2, 0.5, -1.5):
        with pytest.raises(ValueError, match="epsilon"):
            apply_u_lambda_inf(s, eps)


def test_amplitudes_are_one_read_only_array_that_does_not_alias_the_inputs():
    f = np.arange(4, dtype=complex)
    b = 1j * np.arange(4)
    s = DoubletState(FrequencyGrid(1.0, 2.0, 4), f, b)
    assert s.amps.shape == (2, 4) and s.amps.dtype == complex
    assert np.array_equal(s.amps, [f, b])
    assert np.shares_memory(s.psi_fwd, s.amps) and np.shares_memory(s.psi_bwd, s.amps)
    assert not np.shares_memory(s.amps, f) and not np.shares_memory(s.amps, b)
    f[0] = 99.0
    assert s.psi_fwd[0] == 0.0
    for view in (s.amps, s.psi_fwd, s.psi_bwd):
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 1.0
    for out in (apply_translation(s, [0.1, 0.2, 0.3, 0.4]), apply_axial_rotation(s, 0.3),
                apply_axial_boost(s, 0.0), apply_u_lambda_inf(s), apply_u_lambda_inf(s, -1),
                apply_u_minus_i(s)):
        assert not out.amps.flags.writeable


@pytest.mark.parametrize("fwd, bwd", [(np.zeros(3), np.zeros(4)), (np.zeros(4), np.zeros(5)),
                                      (np.zeros((2, 4)), np.zeros(4)), (np.zeros(4), 0.0)])
def test_mismatched_sector_shapes_raise_the_shape_message(fwd, bwd):
    with pytest.raises(ValueError, match=r"amplitudes must have shape \(4,\)"):
        DoubletState(FrequencyGrid(1.0, 2.0, 4), fwd, bwd)


def test_momentum_reversal_swaps_sectors():
    psi = np.arange(1, 17) / np.linalg.norm(np.arange(1, 17))
    s = DoubletState(GRID, psi, np.zeros(16))
    out = apply_u_minus_i(s)
    assert np.max(np.abs(out.psi_fwd)) == 0.0
    assert np.array_equal(out.psi_bwd, psi.astype(complex))
    twice = apply_u_minus_i(out)
    assert np.array_equal(twice.psi_fwd, s.psi_fwd)


def test_eigenstate_amplitudes_and_eigenvalue():
    grid = FrequencyGrid(1.0, 2.0, 4)
    psi = np.zeros(4, complex)
    psi[0] = 1.0
    plus = make_epsilon_eigenstate(grid, psi, 1)
    assert plus.psi_fwd[0] == pytest.approx(1 / np.sqrt(2))
    assert plus.psi_bwd[0] == pytest.approx(1 / np.sqrt(2))
    assert plus.norm() == pytest.approx(1.0, abs=1e-12)
    for eps in (1, -1):
        state = make_epsilon_eigenstate(grid, psi, eps)
        swapped = apply_u_lambda_inf(state)
        assert np.max(np.abs(swapped.psi_fwd - eps * state.psi_fwd)) < 1e-12
        assert np.max(np.abs(swapped.psi_bwd - eps * state.psi_bwd)) < 1e-12


def test_eigenstates_are_orthogonal():
    rng = np.random.default_rng(10)
    psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    psi /= np.linalg.norm(psi)
    plus = make_epsilon_eigenstate(GRID, psi, 1)
    minus = make_epsilon_eigenstate(GRID, psi, -1)
    overlap = np.vdot(plus.psi_fwd, minus.psi_fwd) + np.vdot(plus.psi_bwd, minus.psi_bwd)
    assert abs(overlap) < 1e-12


def test_eigenstate_normalizes_with_warning():
    grid = FrequencyGrid(1.0, 2.0, 2)
    with pytest.warns(UserWarning, match="normaliz"):
        state = make_epsilon_eigenstate(grid, np.array([2.0, 0.0]), 1)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=50)
@given(st.floats(-5, 5), st.floats(-np.pi, np.pi),
       st.integers(min_value=-3, max_value=3))
def test_operations_preserve_norm(a0, alpha, k):
    rng = np.random.default_rng(12)
    s = checks._random_doublet(rng, GRID, interior=3)
    out = apply_translation(s, np.array([a0, 0.3, -0.2, 1.0]))
    out = apply_axial_rotation(out, alpha)
    out = apply_axial_boost(out, k * GRID.step())
    assert out.norm() == pytest.approx(s.norm(), abs=1e-12)


def test_covariance_pure_translation():
    rng = np.random.default_rng(15)
    for _ in range(100):
        s = checks._random_doublet(rng, GRID)
        g = AxialElement(rng.uniform(-3, 3, 4))
        assert check_covariance(s, g, "lambda-inf") < 1e-12
        assert check_covariance(s, g, "minus-i") < 1e-12


def test_covariance_axial_rotation():
    rng = np.random.default_rng(16)
    s = checks._random_doublet(rng, GRID)
    g = AxialElement(rotation=1.1)
    assert check_covariance(s, g, "lambda-inf") < 1e-12
    assert check_covariance(s, g, "minus-i") < 1e-12


def test_covariance_axial_boost():
    rng = np.random.default_rng(17)
    s = checks._random_doublet(rng, GRID, interior=4)
    g = AxialElement(boost=GRID.step())
    assert check_covariance(s, g, "lambda-inf") < 1e-12
    assert check_covariance(s, g, "minus-i") < 1e-12


def test_covariance_mixed_elements_off_axis_grid():
    grid = FrequencyGrid(0.5, 1.5, 12, theta=0.8, phi=2.1)
    rng = np.random.default_rng(18)
    for _ in range(100):
        s = checks._random_doublet(rng, grid, interior=3)
        g = AxialElement(rng.uniform(-2, 2, 4),
                         int(rng.integers(-3, 4)) * grid.step(),
                         rng.uniform(-np.pi, np.pi))
        assert check_covariance(s, g, "lambda-inf") < 1e-10
        assert check_covariance(s, g, "minus-i") < 1e-10


def test_conjugated_axial_matrices_are_unchanged():
    # matrix-level counterpart of the closed form used by check_covariance
    for theta, phi in [(0.0, 0.0), (0.8, 2.1)]:
        li = group.make_lambda_inf(theta, phi)
        n_hat = group.direction_unit(theta, phi)
        b = group.boost_matrix(n_hat, 0.9)
        r = group.rotation_matrix(n_hat, 1.3)
        assert np.max(np.abs(li @ b @ li - b)) < 1e-12
        assert np.max(np.abs(li @ r @ li - r)) < 1e-12


def test_json_roundtrip():
    rng = np.random.default_rng(20)
    grid = FrequencyGrid(0.25, 1.5, 6, theta=0.3, phi=1.0, helicity=2)
    s = checks._random_doublet(rng, grid)
    text = doublet_to_json(s)
    back = doublet_from_json(text)
    assert back.grid == grid
    assert np.array_equal(back.psi_fwd, s.psi_fwd)
    assert np.array_equal(back.psi_bwd, s.psi_bwd)


def test_json_layout_is_unchanged():
    s = DoubletState(FrequencyGrid(0.25, 1.5, 3, theta=0.3, phi=1.0, helicity=2),
                     [1, 0.5j, -0.25 + 0.125j], [0, 1e-300, -2.5])
    assert doublet_to_json(s) == (
        '{"grid": {"omega_min": 0.25, "ratio": 1.5, "count": 3, "theta": 0.3, "phi": 1.0, '
        '"helicity": 2}, "psi_fwd": [[1.0, 0.0], [0.0, 0.5], [-0.25, 0.125]], '
        '"psi_bwd": [[0.0, 0.0], [1e-300, 0.0], [-2.5, 0.0]]}')


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _stack_and_singles(n, trials=7, seed=12):
    """A (trials, 2, N) stack on the rep_checks lattice, its states and one element per state."""
    grid = FrequencyGrid(1.0, min(1.25, checks.OMEGA_TOP ** (1.0 / (n - 1))), n, helicity=-2)
    rng = np.random.default_rng(seed)
    singles = [checks._random_doublet(rng, grid, interior=6) for _ in range(trials)]
    stack = doublet._state(grid, np.array([s.amps for s in singles]))
    k = np.arange(trials) % 7 - 3  # every shift in -3..3, 0 included
    g = AxialElement(rng.uniform(-2, 2, (trials, 4)), k * grid.step(),
                     rng.uniform(-np.pi, np.pi, trials))
    elements = [AxialElement(g.translation[i], g.boost[i], g.rotation[i]) for i in range(trials)]
    return stack, singles, g, elements


@pytest.mark.parametrize("n", [16, 4096])
def test_stacked_operators_give_the_bits_of_single_calls(n):
    stack, singles, g, elements = _stack_and_singles(n)
    grid = stack.grid
    h = doublet.axial_product(grid, g, AxialElement(g.translation[::-1], g.boost[::-1],
                                                     g.rotation[::-1]))
    state_ops = {
        "translation": (lambda s, e: apply_translation(s, e.translation)),
        "rotation": (lambda s, e: apply_axial_rotation(s, e.rotation)),
        "boost": (lambda s, e: apply_axial_boost(s, e.boost)),
        "swap +1": (lambda s, e: apply_u_lambda_inf(s)),
        "swap -1": (lambda s, e: apply_u_lambda_inf(s, -1)),
        "reversal": (lambda s, e: apply_u_minus_i(s)),
        "axial": doublet.apply_axial,
    }
    for name, op in state_ops.items():
        got = op(stack, g)
        for i, s in enumerate(singles):
            assert _same_bits(got.amps[i], op(s, elements[i]).amps), (name, i)
    for i, s in enumerate(singles):
        swapped = apply_u_lambda_inf(s)
        assert _same_bits(stack.norm()[i], s.norm())
        assert _same_bits(apply_u_lambda_inf(stack).norm()[i], swapped.norm())
        for got, want in zip(doublet.epsilon_components(stack), doublet.epsilon_components(s)):
            assert _same_bits(got[i], want)
        for discrete in ("lambda-inf", "minus-i"):
            assert _same_bits(check_covariance(stack, g, discrete)[i],
                              check_covariance(s, elements[i], discrete))
        want = doublet.axial_product(grid, elements[i], elements[-1 - i])
        for part in ("translation", "boost", "rotation"):
            assert _same_bits(getattr(h, part)[i], getattr(want, part))
    assert isinstance(singles[0].norm(), float)
    assert isinstance(check_covariance(singles[0], elements[0]), float)


def test_stacked_boost_records_each_leak_and_warns_like_single_calls():
    grid = FrequencyGrid(1.0, 1.25, 6)
    amps = np.zeros((5, 2, 6), dtype=complex)
    amps[:, 0, 5] = 1e-4  # a leak of 1e-8 of the squared norm at every upward shift
    amps[:, 1, 2] = 1.0
    amps[3, 0, 0] = 0.5  # a downward leak of 0.2 of the squared norm
    stack = doublet._state(grid, amps)
    singles = [doublet._state(grid, a.copy()) for a in amps]
    k = np.array([1, 0, 7, -1, 1])  # shift 7 pushes the whole state off the lattice

    def boost(state, rapidity):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = apply_axial_boost(state, rapidity)
        return out, [str(w.message) for w in caught]

    out, warned = boost(stack, k * grid.step())
    single = [boost(s, float(ki) * grid.step()) for s, ki in zip(singles, k)]
    assert out.leaked_norm.shape == (5,)
    assert all(isinstance(o.leaked_norm, float) for o, _ in single)
    assert _same_bits(out.leaked_norm, [o.leaked_norm for o, _ in single])
    assert warned == [w for _, ws in single for w in ws]
    assert len(warned) == 2  # shifts 7 and -1; 1e-8 stays under the 1e-6 threshold
    assert out.leaked_norm[1] == 0.0 and out.leaked_norm[0] > 0.0


def test_norm_of_a_swapped_view_copies_nothing_and_keeps_a_nan():
    n = 4096
    s = checks._random_doublet(np.random.default_rng(3), FrequencyGrid(1.0, 1.0017, n))
    swapped = apply_u_lambda_inf(s)
    assert swapped.amps.strides[0] < 0
    swapped.norm()
    tracemalloc.start()
    try:
        norm = swapped.norm()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n  # a copy of the state would be 32 n bytes
    assert norm == s.norm()
    amps = s.amps.copy()
    amps[1, 7] = math.nan
    assert math.isnan(apply_u_minus_i(doublet._state(s.grid, amps)).norm())
