import numpy as np
import pytest

from extpoincare import doublet, qubit
from extpoincare.doublet import DoubletState, FrequencyGrid, apply_u_lambda_inf, make_epsilon_eigenstate
from extpoincare.qubit import (
    ID2,
    PAULI_X,
    TwoQubitState,
    apply_block,
    doublet_to_path_polarization,
    entanglement_entropy,
    iota,
    sector_isometry,
    u_lambda_block,
    u_lambda_conjugation_check,
)

GRID = FrequencyGrid(1.0, 1.25, 8)


def dense(op):
    """The dense 2N x 2N reference kron(B, A) of a block operator."""
    return np.kron(op.b, op.a)


def random_state(rng, grid=GRID):
    n = grid.count
    vec = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    vec /= np.linalg.norm(vec)
    return DoubletState(grid, vec[:n], vec[n:])


def test_isometry_single_sector():
    psi = np.arange(1.0, 9.0) / np.linalg.norm(np.arange(1.0, 9.0))
    s = DoubletState(GRID, psi, np.zeros(8))
    w = sector_isometry(s)
    assert np.array_equal(w[:, 0], psi.astype(complex))
    assert np.max(np.abs(w[:, 1])) == 0.0


def test_isometry_maps_eigenstates_to_bell_like_states():
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi /= np.linalg.norm(psi)
    for eps in (1, -1):
        w = sector_isometry(make_epsilon_eigenstate(GRID, psi, eps))
        assert np.max(np.abs(w[:, 0] - psi / np.sqrt(2))) < 1e-12
        assert np.max(np.abs(w[:, 1] - eps * psi / np.sqrt(2))) < 1e-12


def test_isometry_preserves_norms_and_inner_products():
    rng = np.random.default_rng(1)
    for _ in range(100):
        s1, s2 = random_state(rng), random_state(rng)
        w1, w2 = sector_isometry(s1), sector_isometry(s2)
        assert np.linalg.norm(w1) == pytest.approx(s1.norm(), abs=1e-12)
        assert np.vdot(w1, w2) == pytest.approx(np.vdot(s1.amps, s2.amps), abs=1e-12)


def test_iota_unitality():
    n = 8
    assert np.array_equal(dense(iota(np.eye(n), ID2)), np.eye(2 * n))


def test_iota_swap_block_form():
    m = dense(iota(np.eye(8), PAULI_X))
    assert np.array_equal(m[:8, :8], np.zeros((8, 8)))
    assert np.array_equal(m[:8, 8:], np.eye(8))
    assert np.array_equal(m[8:, :8], np.eye(8))
    assert np.array_equal(m[8:, 8:], np.zeros((8, 8)))
    assert np.array_equal(m, dense(u_lambda_block(8)))


def test_iota_is_a_star_homomorphism():
    rng = np.random.default_rng(2)
    n = 6
    for _ in range(100):
        a1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        prod = dense(iota(a1, b1)) @ dense(iota(a2, b2))
        assert np.max(np.abs(prod - dense(iota(a1 @ a2, b1 @ b2)))) < 1e-10
        adj = dense(iota(a1, b1)).conj().T
        assert np.max(np.abs(adj - dense(iota(a1.conj().T, b1.conj().T)))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 6])
def test_factored_iota_matches_the_dense_oracle(n):
    rng = np.random.default_rng(40 + n)
    grid = FrequencyGrid(1.0, 1.25, n)
    for _ in range(20):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        op = iota(a, b)
        assert op.sector_dim == n
        assert np.array_equal(op.a, a) and np.array_equal(op.b, b)
        s = random_state(rng, grid)
        reference = np.kron(b, a) @ s.amps.ravel()
        assert np.max(np.abs(apply_block(op, s).amps.ravel() - reference)) < 1e-12


def test_iota_validates_its_factors():
    with pytest.raises(ValueError, match="square"):
        iota(np.ones((2, 3)), ID2)
    with pytest.raises(ValueError, match="2x2"):
        iota(np.eye(4), np.eye(3))
    with pytest.raises(ValueError, match="grid size"):
        apply_block(iota(np.eye(4), ID2), random_state(np.random.default_rng(0)))


@pytest.mark.parametrize("n", [1, 2, 6])
def test_conjugation_check_matches_the_dense_oracle(n):
    v = qubit.isometry_matrix(n)
    conjugated = v @ dense(u_lambda_block(n)) @ v.T
    gap = float(np.max(np.abs(conjugated - np.kron(np.eye(n), PAULI_X))))
    assert u_lambda_conjugation_check(n) == gap == 0.0


def test_conjugation_check_detects_a_swap_that_does_not_swap(monkeypatch):
    monkeypatch.setattr(qubit, "apply_u_lambda_inf", lambda s: s)
    assert u_lambda_conjugation_check(6) == 1.0


def test_isometry_sends_eigenstates_to_orthonormal_sigma_x_eigenvectors():
    rng = np.random.default_rng(6)
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi /= np.linalg.norm(psi)
    images = {}
    for eps in (1, -1):
        w = sector_isometry(make_epsilon_eigenstate(GRID, psi, eps))
        assert np.max(np.abs(w[:, ::-1] - eps * w)) < 1e-12  # (I x sigma_x) w = eps w
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        images[eps] = w
    assert abs(np.vdot(images[1], images[-1])) < 1e-12


def test_swap_action_through_the_isometry():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = random_state(rng)
        left = sector_isometry(apply_u_lambda_inf(s))
        right = sector_isometry(s)[:, ::-1]  # I x sigma_x flips the internal column
        assert np.max(np.abs(left - right)) < 1e-12


def test_entropy_of_product_state():
    assert entanglement_entropy(TwoQubitState([1, 0, 0, 0])) == pytest.approx(0.0, abs=1e-12)


def test_entropy_of_bell_like_states():
    bell = TwoQubitState(np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert entanglement_entropy(bell) == pytest.approx(np.log(2), abs=1e-12)
    for phase in np.linspace(0, 2 * np.pi, 7):
        state = TwoQubitState(np.array([1, 0, 0, np.exp(1j * phase)]) / np.sqrt(2))
        assert entanglement_entropy(state) == pytest.approx(np.log(2), abs=1e-12)


def test_entropy_rejects_unnormalized_states():
    with pytest.raises(ValueError, match="norm"):
        entanglement_entropy(TwoQubitState([1, 0, 0, 1]))


def test_single_mode_doublet_maps_to_path_polarization():
    grid = FrequencyGrid(1.0, 2.0, 1)
    for eps in (1, -1):
        s = make_epsilon_eigenstate(grid, np.array([1.0]), eps)
        t = doublet_to_path_polarization(s)
        expected = np.array([1, 0, 0, eps]) / np.sqrt(2)
        assert np.max(np.abs(t.amplitudes - expected)) < 1e-12



@pytest.mark.parametrize("n", [8, 256])
def test_stacked_dictionary_gives_the_bits_of_single_calls(n):
    rng = np.random.default_rng(70 + n)
    grid = FrequencyGrid(1.0, 1.25, n)
    trials = 3
    singles = [random_state(rng, grid) for _ in range(trials)]
    stack = doublet._state(grid, np.array([s.amps for s in singles]))
    a = rng.standard_normal((trials, n, n)) + 1j * rng.standard_normal((trials, n, n))
    b = rng.standard_normal((trials, 2, 2)) + 1j * rng.standard_normal((trials, 2, 2))
    op = iota(a, b)
    assert op.sector_dim == n
    moved = apply_block(op, stack)
    shared = apply_block(iota(a[0], b[0]), stack)
    lhs, rhs, gap = qubit.expectation_equality(stack, a, b)
    for i, s in enumerate(singles):
        assert moved.amps[i].tobytes() == apply_block(iota(a[i], b[i]), s).amps.tobytes()
        assert shared.amps[i].tobytes() == apply_block(iota(a[0], b[0]), s).amps.tobytes()
        assert sector_isometry(stack)[i].tobytes() == sector_isometry(s).tobytes()
        want = qubit.expectation_equality(s, a[i], b[i])
        assert type(want[0]) is complex and type(want[2]) is float
        assert (lhs[i], rhs[i], gap[i]) == want
    with pytest.raises(ValueError, match="square"):
        iota(np.ones((trials, 2, 3)), ID2)
    with pytest.raises(ValueError, match="2x2"):
        iota(a, np.ones((trials, 2)))
