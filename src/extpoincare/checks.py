"""Invariant suites behind the report commands.

Each suite returns CheckResult rows with the measured worst-case deviation
against the pinned tolerance.  The eta-deviation table for conjugated
generators is informational only: whether those conjugates stay inside the
proper orthochronous component is deliberately not asserted anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import doublet, group, qubit


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    note: str = ""


def _result(name: str, deviation: float, tolerance: float, note: str = "") -> CheckResult:
    return CheckResult(name, deviation <= tolerance, float(deviation), tolerance, note)


def _worst(*deviations) -> float:
    """Largest deviation, NaN if any is (builtin max can drop one; the sum of these >= 0 cannot)."""
    total = sum(deviations)
    return float(total if math.isnan(total) else max(deviations))


def _gap(s: doublet.DoubletState, t: doublet.DoubletState) -> float:
    """Max entrywise distance between two doublets over both sectors."""
    return _worst(abs(s.psi_fwd - t.psi_fwd).max(), abs(s.psi_bwd - t.psi_bwd).max())


def group_checks(convention: str = "momentum", samples: int = 100,
                 seed: int = 0) -> list[CheckResult]:
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    rng = np.random.default_rng(seed)
    results = []

    thetas = np.linspace(0.0, np.pi, 10)
    phis = np.linspace(0.0, 2 * np.pi, 10)
    dev = 0.0
    for th in thetas:
        for ph in phis:
            m = group.make_lambda_inf(th, ph, convention)
            dev = _worst(dev, np.max(np.abs(m @ m - np.eye(4))))
    results.append(_result("involution squares to identity (10x10 angle grid)", dev, 1e-12))

    dev = 0.0
    for _ in range(samples):
        th, ph = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        p0 = group.lightlike_representative(rng.uniform(0.5, 2.0), th, ph)
        li = group.make_lambda_inf(th, ph, convention)
        if convention == "momentum":
            dev = _worst(dev, np.max(np.abs(li @ p0 + p0)), np.max(np.abs(-li @ p0 - p0)))
        else:
            dev = _worst(dev, np.max(np.abs(li @ p0 - p0)))
    if convention == "momentum":
        results.append(_result("aligned representative maps to its negative", dev, 1e-12))
    else:
        results.append(_result("aligned representative is fixed", dev, 1e-12,
                               note="cone-swap check skipped under the coordinate convention"))

    dev_assoc, dev_inv = 0.0, 0.0
    for _ in range(samples):
        # rapidity capped at 2: the round trip rounds at eps * cond(M)
        gs = [group.ExtPoincareElement(group.random_proper_orthochronous(rng, max_rapidity=2.0),
                                       rng.uniform(-2, 2, 4)) for _ in range(3)]
        left = group.poincare_mul(group.poincare_mul(gs[0], gs[1]), gs[2])
        right = group.poincare_mul(gs[0], group.poincare_mul(gs[1], gs[2]))
        dev_assoc = _worst(dev_assoc, np.max(np.abs(left.linear - right.linear)),
                           np.max(np.abs(left.translation - right.translation)))
        gi = group.poincare_mul(gs[0], group.poincare_inverse(gs[0]))
        dev_inv = _worst(dev_inv, np.max(np.abs(gi.linear - np.eye(4))),
                         np.max(np.abs(gi.translation)))
    results.append(_result("product associativity", dev_assoc, 1e-12))
    results.append(_result("two-sided inverses", dev_inv, 1e-12))

    dev = 0.0
    zs = group.z_set(0.3, 1.1, convention)
    for _ in range(samples):
        n = group.ExtPoincareElement(group.random_proper_orthochronous(rng),
                                     rng.uniform(-2, 2, 4))
        for z in zs:
            nn = group.alpha_z(z, group.alpha_z(z, n))
            dev = _worst(dev, np.max(np.abs(nn.linear - n.linear)),
                         np.max(np.abs(nn.translation - n.translation)))
    results.append(_result("alpha_z is involutive for every z", dev, 1e-12))

    bad = 0
    for _ in range(samples):
        p = rng.uniform(-2, 2, 4)
        lam = group.random_proper_orthochronous(rng)
        if group.classify_orbit(lam @ p) is not group.classify_orbit(p):
            bad += 1
    results.append(_result("orbit class invariant under the identity component",
                           float(bad), 0.0))

    dev = 0.0
    for _ in range(samples):
        th, ph = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        li = group.make_lambda_inf(th, ph, convention)
        n_hat = group.direction_unit(th, ph)
        e_t = np.array([1.0, 0, 0, 0])
        e_n = np.concatenate([[0.0], n_hat])
        u = rng.uniform(-2, 2) * e_t + rng.uniform(-2, 2) * e_n
        v = rng.uniform(-2, 2) * e_t + rng.uniform(-2, 2) * e_n
        dev = _worst(dev, abs(group.minkowski(li @ u, li @ v) + group.minkowski(u, v)))
    results.append(_result("pairing flips sign on the time-direction plane", dev, 1e-12))

    merged = 0
    for _ in range(samples):
        p = rng.uniform(-2, 2, 3)
        p0 = math.sqrt(float(p @ p)) + rng.uniform(0.1, 2.0)
        timelike = np.concatenate([[p0], p])
        classes = {cls for _, _, cls in group.z_orbit(timelike, 0.3, 1.1, convention)}
        wanted = {group.OrbitClass.MASSIVE_FORWARD, group.OrbitClass.MASSIVE_BACKWARD,
                  group.OrbitClass.TACHYONIC}
        if not wanted <= classes:
            merged += 1
    results.append(_result("timelike orbit merges with both massive classes and tachyonic",
                           float(merged), 0.0))
    return results


def ad_eta_table(convention: str = "momentum", samples: int = 12,
                 seed: int = 0) -> list[dict]:
    """eta-deviation of conjugated generators; informational, never a failure.

    Axial generators conjugate to genuine Lorentz matrices; rotations and
    boosts in planes containing the involution direction generally do not.
    """
    rng = np.random.default_rng(seed)
    th, ph = 0.0, 0.0
    li = group.make_lambda_inf(th, ph, convention)
    n_hat = group.direction_unit(th, ph)
    rows = []
    for i in range(samples):
        kind = ("axial-boost", "axial-rotation", "x-rotation", "x-boost")[i % 4]
        param = float(rng.uniform(-1.5, 1.5))
        if kind == "axial-boost":
            h = group.boost_matrix(n_hat, param)
        elif kind == "axial-rotation":
            h = group.rotation_matrix(n_hat, param)
        elif kind == "x-rotation":
            h = group.rotation_matrix([1.0, 0, 0], param)
        else:
            h = group.boost_matrix([1.0, 0, 0], param)
        rows.append({
            "generator": kind,
            "parameter": param,
            "eta_deviation": group.eta_deviation(li @ h @ li),
        })
    return rows


def _random_doublet(rng: np.random.Generator, grid: doublet.FrequencyGrid,
                    interior: int = 0) -> doublet.DoubletState:
    n = grid.count
    if 2 * interior >= n:
        raise ValueError(f"interior padding {interior} leaves no support on {n} points")
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if interior > 0:
        f[:interior] = 0.0
        f[n - interior:] = 0.0
        b[:interior] = 0.0
        b[n - interior:] = 0.0
    vec = np.concatenate([f, b])
    vec = vec / np.linalg.norm(vec)
    return doublet.DoubletState(grid, vec[:n], vec[n:])


def rep_checks(grid_size: int = 16, helicity: int = 1, trials: int = 100,
               seed: int = 0) -> list[CheckResult]:
    if grid_size < 1:
        raise ValueError(f"grid size must be positive, got {grid_size}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    rng = np.random.default_rng(seed)
    grid = doublet.FrequencyGrid(1.0, 1.25, grid_size, helicity=helicity)
    step = grid.step()
    # composed boosts shift up to 2*max_steps; padding must leave support
    max_steps = min(3, (grid_size - 1) // 4)
    results = []

    dev = 0.0
    for _ in range(trials):
        s = _random_doublet(rng, grid, interior=max_steps)
        for op_state in (
                doublet.apply_translation(s, rng.uniform(-3, 3, 4)),
                doublet.apply_axial_rotation(s, rng.uniform(-np.pi, np.pi)),
                doublet.apply_axial_boost(s, rng.integers(-max_steps, max_steps + 1) * step),
                doublet.apply_u_lambda_inf(s),
                doublet.apply_u_minus_i(s)):
            dev = _worst(dev, abs(op_state.norm() - s.norm()))
    results.append(_result("unitarity of every representation operator", dev, 1e-12))

    dev = 0.0
    for _ in range(trials):
        s = _random_doublet(rng, grid)
        signs = rng.choice([-1.0, 1.0], grid_size)
        inv = doublet.SectorInvolution(signs)
        twice = doublet.apply_u_lambda_inf(doublet.apply_u_lambda_inf(s, inv), inv)
        dev = _worst(dev, _gap(twice, s))
        twice = doublet.apply_u_minus_i(doublet.apply_u_minus_i(s))
        dev = _worst(dev, _gap(twice, s))
    results.append(_result("sector swap and momentum reversal are involutions", dev, 0.0))

    dev = 0.0
    for _ in range(trials):
        s = _random_doublet(rng, grid, interior=2 * max_steps)
        g1 = doublet.AxialElement(rng.uniform(-2, 2, 4),
                                  int(rng.integers(-max_steps, max_steps + 1)) * step,
                                  rng.uniform(-np.pi, np.pi))
        g2 = doublet.AxialElement(rng.uniform(-2, 2, 4),
                                  int(rng.integers(-max_steps, max_steps + 1)) * step,
                                  rng.uniform(-np.pi, np.pi))
        left = doublet.apply_axial(doublet.apply_axial(s, g2), g1)
        right = doublet.apply_axial(s, doublet.axial_product(grid, g1, g2))
        dev = _worst(dev, _gap(left, right))
    results.append(_result("axial subgroup homomorphism", dev, 1e-10))

    dev = 0.0
    for _ in range(trials):
        s = _random_doublet(rng, grid, interior=max_steps)
        g = doublet.AxialElement(rng.uniform(-2, 2, 4),
                                 int(rng.integers(-max_steps, max_steps + 1)) * step,
                                 rng.uniform(-np.pi, np.pi))
        dev = _worst(dev, doublet.check_covariance(s, g, "lambda-inf"),
                     doublet.check_covariance(s, g, "minus-i"))
    results.append(_result("covariance under both discrete conjugations", dev, 1e-10))

    dev = 0.0
    for _ in range(trials):
        s = _random_doublet(rng, grid)
        c_plus, c_minus = doublet.epsilon_components(s)
        plus = doublet.DoubletState(grid, c_plus / doublet.SQRT2, c_plus / doublet.SQRT2)
        minus = doublet.DoubletState(grid, c_minus / doublet.SQRT2, -c_minus / doublet.SQRT2)
        recombined = doublet.DoubletState(grid, plus.psi_fwd + minus.psi_fwd,
                                          plus.psi_bwd + minus.psi_bwd)
        dev = _worst(dev, _gap(recombined, s))
    results.append(_result("per-point decomposition into swap eigenstates", dev, 1e-12))

    dev = 0.0
    for eps in (1, -1):
        psi = rng.standard_normal(grid_size) + 1j * rng.standard_normal(grid_size)
        psi = psi / np.linalg.norm(psi)
        state = doublet.make_epsilon_eigenstate(grid, psi, eps)
        swapped = doublet.apply_u_lambda_inf(state)
        labelled = doublet.DoubletState(grid, eps * state.psi_fwd, eps * state.psi_bwd)
        dev = _worst(dev, _gap(swapped, labelled))
    results.append(_result("swap eigenstates carry their labels", dev, 1e-12))
    return results


def bell_checks(grid_size: int = 8, trials: int = 100, seed: int = 0) -> list[CheckResult]:
    if grid_size < 1:
        raise ValueError(f"grid size must be positive, got {grid_size}")
    rng = np.random.default_rng(seed)
    grid = doublet.FrequencyGrid(1.0, 1.25, grid_size)
    results = []

    dev_iso, dev = 0.0, 0.0
    n = grid_size
    unit = qubit.iota(np.eye(n), qubit.ID2)
    for _ in range(trials):
        s1 = _random_doublet(rng, grid)
        s2 = _random_doublet(rng, grid)
        lhs = np.vdot(qubit.sector_isometry(s1), qubit.sector_isometry(s2))
        rhs = np.vdot(qubit.stack(s1), qubit.stack(s2))
        dev_iso = _worst(dev_iso, abs(lhs - rhs))
        a1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        op = qubit.iota(a1, b1)
        left = qubit.apply_block(op, qubit.apply_block(qubit.iota(a2, b2), s1))
        right = qubit.apply_block(qubit.iota(a1 @ a2, b1 @ b2), s1)
        # adjoint: <s2, iota(A x B) s1> = <iota(A^H x B^H) s2, s1>
        adj = qubit.apply_block(qubit.iota(a1.conj().T, b1.conj().T), s2)
        dev = _worst(dev, _gap(qubit.apply_block(unit, s1), s1), _gap(left, right),
                     abs(np.vdot(qubit.stack(s2), qubit.stack(qubit.apply_block(op, s1)))
                         - np.vdot(qubit.stack(adj), qubit.stack(s1))))
    results.append(_result("sector isometry preserves inner products", dev_iso, 1e-12))
    results.append(_result("observable embedding is a unital *-homomorphism", dev, 1e-10))

    dev = 0.0
    for _ in range(trials):
        s = _random_doublet(rng, grid)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        dev = _worst(dev, qubit.expectation_equality(s, a, b)[2])
    results.append(_result("expectations agree on both sides of the dictionary", dev, 1e-10))

    dev = _worst(qubit.u_lambda_conjugation_check(1), qubit.u_lambda_conjugation_check(grid_size))
    results.append(_result("conjugated sector swap equals I x sigma_x", dev, 1e-14))

    dev = 0.0
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    psi = psi / np.linalg.norm(psi)
    for eps in (1, -1):
        state = doublet.make_epsilon_eigenstate(grid, psi, eps)
        lhs, rhs, gap = qubit.expectation_equality(state, np.eye(n), qubit.PAULI_X)
        dev = _worst(dev, gap, abs(lhs - eps), abs(rhs - eps))
    results.append(_result("swap eigenstates give correlation +-1", dev, 1e-12))

    product = qubit.TwoQubitState(np.array([1.0, 0, 0, 0], dtype=complex))
    bell = qubit.TwoQubitState(np.array([1.0, 0, 0, 1.0], dtype=complex) / math.sqrt(2))
    dev = _worst(abs(qubit.entanglement_entropy(product)),
                 abs(qubit.entanglement_entropy(bell) - math.log(2.0)))
    results.append(_result("entanglement entropy hits 0 and ln 2 at the extremes", dev, 1e-12))
    return results
