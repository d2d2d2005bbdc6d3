"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from extpoincare import checks, cli, doublet, experiment, group, qubit

import per_trial


def _announce(number: int, text: str, started: float) -> None:
    print(f"ACCEPTANCE {number} PASS ({time.perf_counter() - started:.2f}s): {text}")


def test_criterion_1_eigenvalue_correlation():
    started = time.perf_counter()
    o_xx = qubit.O_XX.matrix()
    for eps, phi in ((1, 0.0), (-1, np.pi)):
        state = per_trial.prepare_state(phi)
        dense = np.vdot(state.amplitudes, o_xx @ state.amplitudes).real
        probs = per_trial.born_probabilities(state)
        summed = per_trial.correlation_from_probabilities(probs)
        assert abs(dense - eps) < 1e-12
        assert abs(summed - eps) < 1e-12
        assert abs(dense - summed) < 1e-12
    _announce(1, "X-X expectation equals the swap eigenvalue by both routes", started)


def test_criterion_2_phase_dictionary():
    started = time.perf_counter()
    for phi, target in ((0.0, 1.0), (np.pi, -1.0)):
        config = experiment.ExperimentConfig(phi, trials=1_000_000, seed=101)
        e, stderr = experiment.estimate_exx(experiment.run_trials(config))
        assert abs(e - target) <= 4 * stderr
    phis = np.linspace(0.0, 2 * np.pi, 17)
    for v, sigma in ((1.0, 0.0), (0.9, 0.0), (1.0, 0.5)):
        config = experiment.ExperimentConfig(0.0, visibility=v, sigma=sigma,
                                             trials=20_000, seed=77)
        rows = experiment.sweep_phase(phis, config)
        amplitude, fit_stderr = experiment.fit_cosine(rows)
        target = v * np.exp(-sigma ** 2 / 2)
        assert abs(amplitude - target) <= 3 * fit_stderr, (v, sigma, amplitude, fit_stderr)
    _announce(2, "phase settings 0 and pi give +-1 and sweeps fit v*exp(-sigma^2/2)*cos(phi)",
              started)


def test_criterion_3_equivalence_theorem():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    grid = doublet.FrequencyGrid(1.0, 1.25, 8)
    n = grid.count
    for _ in range(100):
        vec = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        vec /= np.linalg.norm(vec)
        s = doublet.DoubletState(grid, vec[:n], vec[n:])
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert qubit.expectation_equality(s, a, b)[2] <= 1e-10
        assert np.linalg.norm(qubit.sector_isometry(s)) == pytest.approx(s.norm(), abs=1e-12)
        a2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        prod = qubit.iota(a, b).matrix @ qubit.iota(a2, b2).matrix
        assert np.max(np.abs(prod - qubit.iota(a @ a2, b @ b2).matrix)) <= 1e-10
        adj = qubit.iota(a, b).matrix.conj().T
        assert np.max(np.abs(adj - qubit.iota(a.conj().T, b.conj().T).matrix)) <= 1e-10
    assert np.array_equal(qubit.iota(np.eye(n), qubit.ID2).matrix, np.eye(2 * n))
    for size in (1, 8):
        assert qubit.u_lambda_conjugation_check(size) <= 1e-14
    _announce(3, "dictionary preserves expectations, products, adjoints and the swap block form",
              started)


def test_criterion_4_representation_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(4096)
    grid = doublet.FrequencyGrid(1.0, 1.25, 16)
    step = grid.step()
    n = grid.count
    for _ in range(100):
        vec = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        vec /= np.linalg.norm(vec)
        s = doublet.DoubletState(grid, vec[:n], vec[n:])

        swapped_twice = doublet.apply_u_lambda_inf(doublet.apply_u_lambda_inf(s))
        assert np.array_equal(swapped_twice.psi_fwd, s.psi_fwd)
        assert np.array_equal(swapped_twice.psi_bwd, s.psi_bwd)
        reversed_twice = doublet.apply_u_minus_i(doublet.apply_u_minus_i(s))
        assert np.array_equal(reversed_twice.psi_fwd, s.psi_fwd)
        assert np.array_equal(reversed_twice.psi_bwd, s.psi_bwd)

        for op in (doublet.apply_translation(s, rng.uniform(-3, 3, 4)),
                   doublet.apply_axial_rotation(s, rng.uniform(-np.pi, np.pi)),
                   doublet.apply_u_lambda_inf(s),
                   doublet.apply_u_minus_i(s)):
            assert abs(op.norm() - 1.0) <= 1e-12

        interior = np.array(vec)
        interior[:6] = interior[n - 6:n] = 0.0
        interior[n:n + 6] = interior[2 * n - 6:] = 0.0
        nrm = np.linalg.norm(interior)
        si = doublet.DoubletState(grid, interior[:n] / nrm, interior[n:] / nrm)
        g1 = doublet.AxialElement(rng.uniform(-2, 2, 4),
                                  int(rng.integers(-3, 4)) * step, rng.uniform(-np.pi, np.pi))
        g2 = doublet.AxialElement(rng.uniform(-2, 2, 4),
                                  int(rng.integers(-3, 4)) * step, rng.uniform(-np.pi, np.pi))
        left = doublet.apply_axial(doublet.apply_axial(si, g2), g1)
        right = doublet.apply_axial(si, doublet.axial_product(grid, g1, g2))
        assert np.max(np.abs(left.psi_fwd - right.psi_fwd)) <= 1e-10
        assert np.max(np.abs(left.psi_bwd - right.psi_bwd)) <= 1e-10
        assert doublet.check_covariance(si, g1, "lambda-inf") <= 1e-10
        assert doublet.check_covariance(si, g1, "minus-i") <= 1e-10
    _announce(4, "involutions exact, operators unitary, axial homomorphism and covariances hold",
              started)


def test_criterion_5_group_suite():
    started = time.perf_counter()
    for theta in np.linspace(0, np.pi, 10):
        for phi in np.linspace(0, 2 * np.pi, 10):
            m = group.make_lambda_inf(theta, phi)
            assert np.max(np.abs(m @ m - np.eye(4))) <= 1e-12
            p0 = group.lightlike_representative(1.0, theta, phi)
            assert np.max(np.abs(m @ p0 + p0)) <= 1e-12
    classes = {cls for _, _, cls in group.z_orbit(np.array([1.0, 0, 0, 0]))}
    assert {group.OrbitClass.MASSIVE_FORWARD, group.OrbitClass.MASSIVE_BACKWARD,
            group.OrbitClass.TACHYONIC} <= classes
    rng = np.random.default_rng(55)
    for _ in range(100):
        p = rng.uniform(-2, 2, 4)
        lam = group.random_proper_orthochronous(rng)
        assert group.classify_orbit(lam @ p) is group.classify_orbit(p)
    _announce(5, "involution squares, cone swap, orbit merging and class invariance hold", started)


def test_criterion_6_marginal_invariance():
    started = time.perf_counter()
    for phi in np.linspace(0, 2 * np.pi, 13):
        for v in (0.0, 0.5, 1.0):
            probs = per_trial.born_probabilities(per_trial.prepare_state(phi, v))
            assert abs(probs[(1, 1)] + probs[(1, -1)] - 0.5) <= 1e-12
            assert abs(probs[(-1, 1)] + probs[(-1, -1)] - 0.5) <= 1e-12
            assert abs(probs[(1, 1)] + probs[(-1, 1)] - 0.5) <= 1e-12
    e_plus = per_trial.correlation_from_probabilities(
        per_trial.born_probabilities(per_trial.prepare_state(0.0)))
    e_minus = per_trial.correlation_from_probabilities(
        per_trial.born_probabilities(per_trial.prepare_state(np.pi)))
    assert e_plus > 0.999 and e_minus < -0.999
    _announce(6, "marginals stay uniform while the correlation flips sign", started)


def test_criterion_7_reproducibility(tmp_path):
    started = time.perf_counter()
    base = ["experiment", "run", "--phi", "0.8", "--visibility", "0.95",
            "--eta", "0.9", "--dark", "0.002", "--trials", "200000", "--seed", "90"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "w4.csv")]
    assert cli.main(base + ["--workers", "1", "--out", str(paths[0])]) == 0
    assert cli.main(base + ["--workers", "1", "--out", str(paths[1])]) == 0
    assert cli.main(base + ["--workers", "4", "--out", str(paths[2])]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() == paths[2].read_bytes()
    _announce(7, "identical seed and config give bitwise-identical CSV for 1 and 4 workers",
              started)


def test_full_check_suites_pass():
    # the CLI report suites are part of the same gate
    for result in (checks.group_checks(samples=50)
                   + checks.rep_checks(trials=50)
                   + checks.bell_checks(trials=50)):
        assert result.passed, result


GROUP_CHECK_ROWS = [
    ("involution squares to identity (10x10 angle grid)", 1e-12),
    ("product associativity", 1e-12),
    ("two-sided inverses", 1e-12),
    ("alpha_z is involutive for every z", 1e-12),
    ("orbit class invariant under the identity component", 0.0),
    ("pairing flips sign on the time-direction plane", 1e-12),
    ("timelike orbit merges with both massive classes and tachyonic", 0.0),
]


@pytest.mark.parametrize("convention, cone_row", [
    ("momentum", "aligned representative maps to its negative"),
    ("coordinate", "aligned representative is fixed"),
])
def test_group_suite_rows_and_results_hold_over_seeds(convention, cone_row):
    want = GROUP_CHECK_ROWS[:1] + [(cone_row, 1e-12)] + GROUP_CHECK_ROWS[1:]
    for seed in range(21):
        results = checks.group_checks(convention, seed=seed)
        assert [(r.name, r.tolerance) for r in results] == want
        assert all(r.passed for r in results), seed
