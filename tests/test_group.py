import numpy as np
import pytest
from hypothesis import given, strategies as st

from extpoincare import group
from extpoincare.group import OrbitClass

coords = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
angles = st.floats(0.0, 2 * np.pi, allow_nan=False, allow_infinity=False)


@given(st.tuples(coords, coords, coords, coords),
       st.tuples(coords, coords, coords, coords),
       st.floats(-10, 10), st.floats(-10, 10))
def test_minkowski_is_symmetric_and_bilinear(u, v, a, b):
    u, v = np.array(u), np.array(v)
    assert group.minkowski(u, v) == pytest.approx(group.minkowski(v, u), abs=1e-9)
    lhs = group.minkowski(a * u + b * v, u)
    rhs = a * group.minkowski(u, u) + b * group.minkowski(v, u)
    assert lhs == pytest.approx(rhs, abs=1e-6, rel=1e-9)


def test_coordinate_convention_swaps_t_and_z():
    m = group.make_lambda_inf(0.0, 0.0, "coordinate")
    expected = np.array([
        [0, 0, 0, 1],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [1, 0, 0, 0],
    ], dtype=float)
    assert np.array_equal(m, expected)


def test_momentum_convention_reverses_aligned_representative():
    m = group.make_lambda_inf(0.0, 0.0, "momentum")
    p0 = np.array([1.0, 0.0, 0.0, 1.0])
    assert np.max(np.abs(m @ p0 + p0)) < 1e-12


def test_momentum_convention_fixes_representative_under_negative():
    for theta, phi in [(0.0, 0.0), (0.7, 1.3), (np.pi / 2, np.pi)]:
        li = group.make_lambda_inf(theta, phi, "momentum")
        p0 = group.lightlike_representative(1.7, theta, phi)
        assert np.max(np.abs(li @ p0 + p0)) < 1e-12
        assert np.max(np.abs(-li @ p0 - p0)) < 1e-12


@given(angles, angles, st.sampled_from(["momentum", "coordinate"]))
def test_involution_squares_to_identity(theta, phi, convention):
    m = group.make_lambda_inf(theta, phi, convention)
    assert np.max(np.abs(m @ m - np.eye(4))) < 1e-12


def test_unknown_convention_rejected():
    with pytest.raises(ValueError):
        group.make_lambda_inf(0.0, 0.0, "cartesian")


def test_generated_elements_are_proper_orthochronous():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = group.random_proper_orthochronous(rng)
        assert group.eta_deviation(m) < 1e-10
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-10)
        assert m[0, 0] >= 1.0 - 1e-12


def test_identity_is_neutral():
    rng = np.random.default_rng(3)
    g = group.ExtPoincareElement(
        group.random_proper_orthochronous(rng),
        rng.uniform(-1, 1, 4))
    e = group.poincare_identity()
    for prod in (group.poincare_mul(e, g), group.poincare_mul(g, e)):
        assert np.array_equal(prod.linear, g.linear)
        assert np.array_equal(prod.translation, g.translation)


def test_pure_translations_add():
    a = np.array([1.0, 2.0, -3.0, 0.5])
    b = np.array([-0.5, 0.0, 1.0, 4.0])
    ga = group.ExtPoincareElement(np.eye(4), a)
    gb = group.ExtPoincareElement(np.eye(4), b)
    prod = group.poincare_mul(ga, gb)
    assert np.array_equal(prod.translation, a + b)
    assert np.array_equal(prod.linear, np.eye(4))


def test_rotation_acts_on_the_translation():
    # R_z(pi/2) sends the x translation to the y translation
    rz = group.rotation_matrix([0, 0, 1], np.pi / 2)
    g1 = group.ExtPoincareElement(rz, np.zeros(4))
    g2 = group.ExtPoincareElement(np.eye(4),
                                  np.array([0.0, 1.0, 0.0, 0.0]))
    prod = group.poincare_mul(g1, g2)
    assert np.max(np.abs(prod.translation - np.array([0.0, 0.0, 1.0, 0.0]))) < 1e-12
    assert np.array_equal(prod.linear, rz)


def test_product_associativity_and_inverses():
    rng = np.random.default_rng(11)
    for _ in range(100):
        # rapidity capped at 2: the round trip rounds at eps * cond(M)
        gs = [group.ExtPoincareElement(
                group.random_proper_orthochronous(rng, max_rapidity=2.0),
                rng.uniform(-2, 2, 4)) for _ in range(3)]
        left = group.poincare_mul(group.poincare_mul(gs[0], gs[1]), gs[2])
        right = group.poincare_mul(gs[0], group.poincare_mul(gs[1], gs[2]))
        assert np.max(np.abs(left.linear - right.linear)) < 1e-12
        assert np.max(np.abs(left.translation - right.translation)) < 1e-12
        for prod in (group.poincare_mul(gs[0], group.poincare_inverse(gs[0])),
                     group.poincare_mul(group.poincare_inverse(gs[0]), gs[0])):
            assert np.max(np.abs(prod.linear - np.eye(4))) < 1e-12
            assert np.max(np.abs(prod.translation)) < 1e-12


def test_alpha_z_identity_element_does_nothing():
    rng = np.random.default_rng(5)
    n = group.ExtPoincareElement(
        group.random_proper_orthochronous(rng),
        rng.uniform(-1, 1, 4))
    zi = group.z_set()[0]
    out = group.alpha_z(zi, n)
    assert np.array_equal(out.linear, n.linear)
    assert np.array_equal(out.translation, n.translation)


def test_alpha_z_minus_identity_flips_translations():
    a = np.array([0.3, -1.0, 2.0, 0.7])
    n = group.ExtPoincareElement(np.eye(4), a)
    out = group.alpha_z(group.z_set()[1], n)
    assert np.max(np.abs(out.translation + a)) < 1e-15
    assert np.max(np.abs(out.linear - np.eye(4))) < 1e-15


def test_alpha_z_lambda_inf_on_time_translation():
    n = group.ExtPoincareElement(np.eye(4),
                                 np.array([1.0, 0.0, 0.0, 0.0]))
    z = group.make_lambda_inf(0.0, 0.0, "momentum")
    out = group.alpha_z(z, n)
    assert np.max(np.abs(out.translation - np.array([0.0, 0.0, 0.0, -1.0]))) < 1e-15


def test_alpha_z_requires_discrete_tag():
    rng = np.random.default_rng(2)
    h = group.random_proper_orthochronous(rng)
    n = group.poincare_identity()
    with pytest.raises(ValueError, match="involution"):
        group.alpha_z(h, n)


@pytest.mark.parametrize("z", [
    2.0 * group.make_lambda_inf(),
    np.full((4, 4), np.nan),
    np.eye(3),
])
def test_alpha_z_rejects_anything_but_a_4x4_involution(z):
    with pytest.raises(ValueError, match="involution"):
        group.alpha_z(z, group.poincare_identity())


def test_alpha_z_is_a_product_automorphism():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n1 = group.ExtPoincareElement(
            group.random_proper_orthochronous(rng),
            rng.uniform(-2, 2, 4))
        n2 = group.ExtPoincareElement(
            group.random_proper_orthochronous(rng),
            rng.uniform(-2, 2, 4))
        for z in group.z_set(0.4, 0.9):
            lhs = group.poincare_mul(group.alpha_z(z, n1), group.alpha_z(z, n2))
            rhs = group.alpha_z(z, group.poincare_mul(n1, n2))
            assert np.max(np.abs(lhs.linear - rhs.linear)) < 1e-12
            assert np.max(np.abs(lhs.translation - rhs.translation)) < 1e-12


def test_alpha_z_is_involutive():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = group.ExtPoincareElement(
            group.random_proper_orthochronous(rng),
            rng.uniform(-2, 2, 4))
        for z in group.z_set(1.2, 0.3):
            nn = group.alpha_z(z, group.alpha_z(z, n))
            assert np.max(np.abs(nn.linear - n.linear)) < 1e-12
            assert np.max(np.abs(nn.translation - n.translation)) < 1e-12


@pytest.mark.parametrize("p,expected", [
    ((1, 0, 0, 0), OrbitClass.MASSIVE_FORWARD),
    ((-2, 0, 1, 0), OrbitClass.MASSIVE_BACKWARD),
    ((0, 0, 0, 1), OrbitClass.TACHYONIC),
    ((1, 0, 0, 1), OrbitClass.LIGHTLIKE_FORWARD),
    ((-1, 0, 0, 1), OrbitClass.LIGHTLIKE_BACKWARD),
    ((0, 0, 0, 0), OrbitClass.ZERO),
])
def test_classify_orbit_examples(p, expected):
    assert group.classify_orbit(np.array(p, dtype=float)) is expected


@pytest.mark.parametrize("p", [(np.nan, 0, 0, 0), (1, np.inf, 0, 0), (0, 0, -np.inf, 1)])
def test_classify_orbit_rejects_non_finite_momenta(p):
    with pytest.raises(ValueError, match="finite"):
        group.classify_orbit(np.array(p, dtype=float))


@given(st.lists(st.integers(-100, 100), min_size=4, max_size=4), st.integers(-900, 900))
def test_classify_orbit_is_exactly_scale_invariant(p, k):
    # scaling by 2**k is exact, so only overflow or underflow could change the class
    p = np.array(p, dtype=float)
    assert group.classify_orbit(p * 2.0 ** k) is group.classify_orbit(p)


def test_classify_orbit_band_edge_is_scale_invariant_far_from_one():
    # |eta(p,p)| within rounding of the 1e-9 band edge: the class must not
    # depend on a power-of-two scale, however far from 1 it moves p
    rng = np.random.default_rng(3)
    d = rng.normal(size=(2000, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    eps = rng.choice([1e-9, -1e-9, 5e-10, 2e-9], 2000) * (1 + rng.uniform(-1e-6, 1e-6, 2000))
    p = np.concatenate([(1 + eps)[:, None], d], axis=1) * rng.uniform(0.1, 10, (2000, 1))
    classes = group.classify_orbit(p)
    for k in (-900, -600, 600, 900):
        assert np.array_equal(group.classify_orbit(np.ldexp(p, k)), classes)


anything = st.floats()  # NaN and both infinities included


@given(st.tuples(anything, anything, anything, anything), anything, anything,
       st.sampled_from(["momentum", "coordinate"]))
def test_momentum_inputs_are_rejected_or_give_finite_output(p, theta, phi, convention):
    finite = all(np.isfinite([*p, theta, phi]))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            rows = group.z_orbit(np.array(p), theta, phi, convention)
    except ValueError:
        # rejected: a non-finite input, or an image past the float range
        assert not finite or max(map(abs, p)) > 1e307
        return
    assert finite
    for _, image, cls in rows:
        assert np.all(np.isfinite(image))
        assert isinstance(cls, OrbitClass)


def test_classify_orbit_tolerance_band():
    p = np.array([1.0, 0.0, 0.0, 1.0 + 1e-12])
    assert group.classify_orbit(p) is OrbitClass.LIGHTLIKE_FORWARD
    p = np.array([1.0, 0.0, 0.0, 1.1])
    assert group.classify_orbit(p) is OrbitClass.TACHYONIC


def test_z_orbit_of_timelike_vector_merges_classes():
    rows = group.z_orbit(np.array([1.0, 0, 0, 0]), 0.0, 0.0)
    by_tag = {tag: (image, cls) for tag, image, cls in rows}
    assert np.max(np.abs(by_tag["I"][0] - [1, 0, 0, 0])) < 1e-15
    assert np.max(np.abs(by_tag["-I"][0] - [-1, 0, 0, 0])) < 1e-15
    assert np.max(np.abs(by_tag["lambda-inf"][0] - [0, 0, 0, -1])) < 1e-15
    assert np.max(np.abs(by_tag["-lambda-inf"][0] - [0, 0, 0, 1])) < 1e-15
    assert by_tag["I"][1] is OrbitClass.MASSIVE_FORWARD
    assert by_tag["-I"][1] is OrbitClass.MASSIVE_BACKWARD
    assert by_tag["lambda-inf"][1] is OrbitClass.TACHYONIC
    assert by_tag["-lambda-inf"][1] is OrbitClass.TACHYONIC


def test_z_orbit_of_aligned_lightlike_vector_stays_on_the_cone():
    rows = group.z_orbit(np.array([1.0, 0, 0, 1.0]), 0.0, 0.0)
    classes = {cls for _, _, cls in rows}
    assert classes == {OrbitClass.LIGHTLIKE_FORWARD, OrbitClass.LIGHTLIKE_BACKWARD}
    for _, image, _ in rows:
        assert (np.max(np.abs(image - [1, 0, 0, 1])) < 1e-15
                or np.max(np.abs(image + [1, 0, 0, 1])) < 1e-15)


def test_z_orbit_of_zero_vector():
    rows = group.z_orbit(np.zeros(4))
    assert all(cls is OrbitClass.ZERO for _, _, cls in rows)


def test_stacked_calls_equal_the_per_element_loop():
    rng = np.random.default_rng(31)
    k = 7
    axes, params = rng.standard_normal((k, 3)), rng.uniform(-2, 2, k)
    thetas, phis = rng.uniform(0, np.pi, k), rng.uniform(0, 2 * np.pi, k)
    for fn in (group.boost_matrix, group.rotation_matrix):
        assert np.array_equal(fn(axes, params), np.stack([fn(a, t) for a, t in zip(axes, params)]))
    for convention in ("momentum", "coordinate"):
        assert np.array_equal(
            group.make_lambda_inf(thetas, phis, convention),
            np.stack([group.make_lambda_inf(t, p, convention) for t, p in zip(thetas, phis)]))
    g = group.ExtPoincareElement(group.random_proper_orthochronous(rng, size=k),
                                 rng.uniform(-2, 2, (k, 4)))
    h = group.ExtPoincareElement(group.random_proper_orthochronous(rng, size=k),
                                 rng.uniform(-2, 2, (k, 4)))
    singles = [(group.ExtPoincareElement(g.linear[i], g.translation[i]),
                group.ExtPoincareElement(h.linear[i], h.translation[i])) for i in range(k)]
    zs = np.stack(group.z_set(0.4, 0.9))
    stacked = [(group.poincare_mul(g, h), [group.poincare_mul(a, b) for a, b in singles]),
               (group.poincare_inverse(g), [group.poincare_inverse(a) for a, _ in singles]),
               (group.alpha_z(zs[:, None], g),
                [group.alpha_z(z, a) for z in zs for a, _ in singles])]
    for whole, parts in stacked:
        assert np.array_equal(whole.linear.reshape(-1, 4, 4), np.stack([p.linear for p in parts]))
        assert np.array_equal(whole.translation.reshape(-1, 4),
                              np.stack([p.translation for p in parts]))
    u, v = g.translation, h.translation
    assert np.array_equal(group.minkowski(u, v),
                          [group.minkowski(a, b) for a, b in zip(u, v)])
    momenta = np.concatenate([u, np.zeros((1, 4)), [[1.0, 0, 0, 1.0], [2.0 ** 600, 0, 0, 0]]])
    assert list(group.classify_orbit(momenta)) == [group.classify_orbit(p) for p in momenta]


def test_stacked_random_elements_are_proper_orthochronous():
    stack = group.random_proper_orthochronous(np.random.default_rng(7), size=(5, 10))
    assert stack.shape == (5, 10, 4, 4)
    for m in stack.reshape(-1, 4, 4):
        assert group.eta_deviation(m) < 1e-10
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-10)
        assert m[0, 0] >= 1.0 - 1e-12


def test_single_random_element_keeps_its_draws():
    # values from the one-element-at-a-time construction: the same draws
    # in the same order give the same matrix and leave the stream in place
    rng = np.random.default_rng(2025)
    m = group.random_proper_orthochronous(rng, 2.5, 5)
    assert m.tolist() == [
        [10.724877410252704, -4.584035350877895, -8.744901917064219, 4.0664856851803926],
        [-9.447244471120461, 4.473202598282305, 7.659857835657401, -3.401097550696609],
        [4.144421753621975, -0.9985167724838322, -3.8733294660164694, 1.4753015876938829],
        [-2.7561450788986988, 1.003395668660739, 1.9486421745102143, -1.9473896640812518]]
    assert rng.random() == 0.20743238090945026


class _ShortFirstAxis:
    """Generator stand-in whose first axis draw has a zero-length first row."""

    def __init__(self):
        self.rng = np.random.default_rng(3)
        self.normal_shapes = []

    def standard_normal(self, shape):
        out = self.rng.standard_normal(shape)
        if not self.normal_shapes:
            out.reshape(-1, 3)[0] = 0.0
        self.normal_shapes.append(shape)
        return out

    def uniform(self, low, high, size=None):
        return self.rng.uniform(low, high, size)


@pytest.mark.parametrize("size, redraw", [(None, (1, 3)), (6, (1, 3))])
def test_short_axes_are_redrawn_row_by_row(size, redraw):
    rng = _ShortFirstAxis()
    m = group.random_proper_orthochronous(rng, factors=2, size=size)
    assert rng.normal_shapes[1] == redraw
    assert len(rng.normal_shapes) == 3
    for one in m.reshape(-1, 4, 4):
        assert group.eta_deviation(one) < 1e-10


@pytest.mark.parametrize("linear, translation, field", [
    (np.zeros((5, 4, 4)), np.zeros((3, 4)), "translation"),
    (np.zeros((5, 4, 4)), np.zeros(4), "translation"),
    (np.zeros((4, 3)), np.zeros(4), "linear"),
    (np.zeros((4, 4)), np.zeros(3), "translation"),
])
def test_element_rejects_mismatched_shapes_naming_the_field(linear, translation, field):
    with pytest.raises(ValueError, match=field):
        group.ExtPoincareElement(linear, translation)
