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


def _dist(a, b=0.0) -> float:
    """Max entrywise |a - b| over whole arrays or lists of deviations; ndarray.max keeps a NaN."""
    return float(np.abs(np.subtract(a, b)).max())


def _rng(seed: int) -> np.random.Generator:
    """The suites' generator; a negative seed is rejected naming the field, not by numpy."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def _element_gap(g: group.ExtPoincareElement, h: group.ExtPoincareElement) -> float:
    """Max entrywise distance between (stacks of) group elements, both parts."""
    return _dist([_dist(g.linear, h.linear), _dist(g.translation, h.translation)])


def _relative_gap(g: group.ExtPoincareElement, h: group.ExtPoincareElement) -> float:
    """Worst per-sample entrywise |g - h|, both parts, over 1 + that sample's largest |g| entry.

    Rounding in a product grows with its entries: a correct product with an
    entry near 1e4 misses an absolute 1e-12 by about one ulp of that entry.
    """
    def largest(linear, translation):
        return np.maximum(np.abs(linear).max(axis=(-2, -1)), np.abs(translation).max(axis=-1))
    return _dist(largest(g.linear - h.linear, g.translation - h.translation)
                 / (1.0 + largest(g.linear, g.translation)))


# group_checks draws and evaluates its sampled invariants in blocks of this
# many samples, about 12 MB of stacked arrays (2.9 kB per sample under
# tracemalloc), so the peak is the same for any --samples.  Up to one block
# the draws are exactly those of a single stacked pass.
GROUP_BLOCK = 4096

# The group_checks rows that count failing samples; every other row is a deviation.
ORBIT_CLASS_ROW = "orbit class invariant under the identity component"
TIMELIKE_MERGE_ROW = "timelike orbit merges with both massive classes and tachyonic"
COUNT_ROWS = (ORBIT_CLASS_ROW, TIMELIKE_MERGE_ROW)

# The orbit-class row counts only samples with |eta(p,p)| above this times
# max(|p|^2, |Lambda p|^2): the lightlike band scales with the Euclidean norm,
# which a boost changes.  Fixed at import, so a wider band still fails the row.
ORBIT_CLEAR = 2 * group.LIGHTLIKE_BAND


def group_checks(convention: str = "momentum", samples: int = 100,
                 seed: int = 0) -> list[CheckResult]:
    """Group invariants, each evaluated as stacked arrays over blocks of GROUP_BLOCK samples."""
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    rng = _rng(seed)
    thetas, phis = np.meshgrid(np.linspace(0.0, np.pi, 10), np.linspace(0.0, 2 * np.pi, 10),
                               indexing="ij")
    m = group.make_lambda_inf(thetas, phis, convention)
    involution = _result("involution squares to identity (10x10 angle grid)",
                         _dist(m @ m, group.ID4), 1e-12)

    rows = _group_block(rng, convention, min(samples, GROUP_BLOCK))
    for start in range(GROUP_BLOCK, samples, GROUP_BLOCK):
        block = _group_block(rng, convention, min(samples - start, GROUP_BLOCK))
        rows = [_fold(r, b) for r, b in zip(rows, block)]
    return [involution] + rows


def _fold(r: CheckResult, b: CheckResult) -> CheckResult:
    """One group_checks row over two blocks: failure counts add, deviations keep the max."""
    if r.name in COUNT_ROWS:
        dev = r.max_deviation + b.max_deviation
    else:
        dev = _dist([r.max_deviation, b.max_deviation])
    return _result(r.name, dev, r.tolerance, r.note)


def _group_block(rng: np.random.Generator, convention: str, samples: int) -> list[CheckResult]:
    """The sampled group_checks rows on one block of samples, drawn check by check."""
    results = []

    def angles():
        return rng.uniform(0, np.pi, samples), rng.uniform(0, 2 * np.pi, samples)

    def elements(max_rapidity=3.0):
        return group.ExtPoincareElement(
            group.random_proper_orthochronous(rng, max_rapidity, size=samples),
            rng.uniform(-2, 2, (samples, 4)))

    th, ph = angles()
    p0 = group.lightlike_representative(rng.uniform(0.5, 2.0, samples), th, ph)
    image = group.act(group.make_lambda_inf(th, ph, convention), p0)
    if convention == "momentum":
        results.append(_result("aligned representative maps to its negative",
                               _dist(image, -p0), 1e-12))
    else:
        results.append(_result("aligned representative is fixed", _dist(image, p0), 1e-12,
                               note="cone-swap check skipped under the coordinate convention"))

    # rapidity capped at 2: the round trip rounds at eps * cond(M)
    g1, g2, g3 = elements(2.0), elements(2.0), elements(2.0)
    left = group.poincare_mul(group.poincare_mul(g1, g2), g3)
    right = group.poincare_mul(g1, group.poincare_mul(g2, g3))
    results.append(_result("product associativity", _relative_gap(left, right), 1e-12,
                           note="deviation relative to 1 + the product's largest entry"))
    gi = group.poincare_mul(g1, group.poincare_inverse(g1))
    results.append(_result("two-sided inverses", _element_gap(gi, group.poincare_identity()),
                           1e-12))

    zs = group.z_set(0.3, 1.1, convention)[:, None]
    n = elements()
    try:
        gap = _element_gap(group.alpha_z(zs, group.alpha_z(zs, n)), n)
    except ValueError:  # alpha_z rejects a z that is no involution: a FAIL, not an input error
        gap = math.nan
    results.append(_result("alpha_z is involutive for every z", gap, 1e-12))

    p = rng.uniform(-2, 2, (samples, 4))
    lam = group.random_proper_orthochronous(rng, size=samples)
    moved = group.act(lam, p)
    clear = (np.abs(group.minkowski(p, p))
             > ORBIT_CLEAR * np.maximum(np.sum(p * p, axis=-1), np.sum(moved * moved, axis=-1)))
    bad = np.count_nonzero(clear & (group.classify_orbit(moved) != group.classify_orbit(p)))
    results.append(_result(ORBIT_CLASS_ROW, float(bad), 0.0))

    th, ph = angles()
    li = group.make_lambda_inf(th, ph, convention)
    e_t = np.array([1.0, 0, 0, 0])
    e_n = np.concatenate([np.zeros((samples, 1)), group.direction_unit(th, ph)], axis=-1)
    c = rng.uniform(-2, 2, (4, samples, 1))
    u = c[0] * e_t + c[1] * e_n
    v = c[2] * e_t + c[3] * e_n
    flip = group.minkowski(group.act(li, u), group.act(li, v)) + group.minkowski(u, v)
    results.append(_result("pairing flips sign on the time-direction plane", _dist(flip),
                           1e-12))

    spatial = rng.uniform(-2, 2, (samples, 3))
    p0 = np.linalg.norm(spatial, axis=-1) + rng.uniform(0.1, 2.0, samples)
    timelike = np.concatenate([p0[:, None], spatial], axis=-1)
    classes = np.stack([cls for _, _, cls in group.z_orbit(timelike, 0.3, 1.1, convention)])
    covered = np.all([np.any(classes == wanted, axis=0)
                      for wanted in (group.OrbitClass.MASSIVE_FORWARD,
                                     group.OrbitClass.MASSIVE_BACKWARD,
                                     group.OrbitClass.TACHYONIC)], axis=0)
    results.append(_result(TIMELIKE_MERGE_ROW, float(np.count_nonzero(~covered)), 0.0))
    return results


def ad_eta_table(convention: str = "momentum", seed: int = 0) -> list[dict]:
    """eta-deviation of conjugated generators; informational, never a failure.

    Axial generators conjugate to genuine Lorentz matrices; rotations and
    boosts in planes containing the involution direction generally do not.
    """
    rng = _rng(seed)
    li = group.make_lambda_inf(0.0, 0.0, convention)
    n_hat, x_hat = group.direction_unit(0.0, 0.0), [1.0, 0, 0]
    generators = (("axial-boost", group.boost_matrix, n_hat),
                  ("axial-rotation", group.rotation_matrix, n_hat),
                  ("x-rotation", group.rotation_matrix, x_hat),
                  ("x-boost", group.boost_matrix, x_hat))
    rows = []
    for kind, matrix, axis in 3 * generators:  # three draws of each, in turn
        param = float(rng.uniform(-1.5, 1.5))
        rows.append({"generator": kind, "parameter": param,
                     "eta_deviation": group.eta_deviation(li @ matrix(axis, param) @ li)})
    return rows


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """standard_normal + 1j * standard_normal: the same draws and bits, no complex temporary."""
    z = rng.standard_normal(shape).astype(complex)
    z.imag = rng.standard_normal(shape)
    return z


def _random_doublet(rng: np.random.Generator, grid: doublet.FrequencyGrid,
                    interior: int = 0) -> doublet.DoubletState:
    """A unit doublet drawn as the forward then the backward _complex_normal(rng, N)."""
    n = grid.count
    if 2 * interior >= n:
        raise ValueError(f"interior padding {interior} leaves no support on {n} points")
    draws = rng.standard_normal((2, 2, n))  # f.re, f.im, b.re, b.im
    amps = np.empty((2, n), dtype=complex)
    amps.real = draws[:, 0]
    amps.imag = draws[:, 1]
    if interior > 0:
        amps[:, :interior] = 0.0
        amps[:, n - interior:] = 0.0
    amps /= np.linalg.norm(amps)
    return doublet._state(grid, amps)


# Note for the rep_checks rows that draw boosts: at N <= 4 the padding leaves
# no interior to shift into, so every drawn boost is the identity.
NO_BOOST_NOTE = "no boost exercised: a grid of 4 or fewer points has no room to shift"

# Top frequency of the rep_checks lattice.  A translation phase omega * (a0 - n.a)
# rounds at about eps * omega * |a|, which at omega = 1e3 and |a| <= 10 is
# 2e-12, far below the 1e-10 homomorphism and covariance tolerances; a
# lattice climbing to 1e290 leaves only rounding noise in the phases.
OMEGA_TOP = 1e3


def rep_checks(grid_size: int = 16, helicity: int = 1, trials: int = 100,
               seed: int = 0) -> list[CheckResult]:
    """Doublet invariants on omega_i = ratio**i, ratio = min(1.25, OMEGA_TOP**(1/(N-1))).

    Grids up to N = 31 keep ratio 1.25; larger ones are squeezed so the top
    frequency stays at OMEGA_TOP.  Each trial holds O(N) arrays (about 27
    complex N-vectors, 1.75 MB traced at N = 4096) and nothing survives it.
    """
    if grid_size < 1:
        raise ValueError(f"grid size must be positive, got {grid_size}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    rng = _rng(seed)
    ratio = min(1.25, OMEGA_TOP ** (1.0 / max(grid_size - 1, 1)))
    grid = doublet.FrequencyGrid(1.0, ratio, grid_size, helicity=helicity)
    step = grid.step()
    # composed boosts shift up to 2*max_steps; padding must leave support
    max_steps = min(3, (grid_size - 1) // 4)
    boost_note = "" if max_steps else NO_BOOST_NOTE
    results = []

    def axial_element():
        return doublet.AxialElement(rng.uniform(-2, 2, 4),
                                    int(rng.integers(-max_steps, max_steps + 1)) * step,
                                    rng.uniform(-np.pi, np.pi))

    devs = []
    for _ in range(trials):
        s = _random_doublet(rng, grid, interior=max_steps)
        s_norm = s.norm()
        for op_state in (
                doublet.apply_translation(s, rng.uniform(-3, 3, 4)),
                doublet.apply_axial_rotation(s, rng.uniform(-np.pi, np.pi)),
                doublet.apply_axial_boost(s, rng.integers(-max_steps, max_steps + 1) * step),
                doublet.apply_u_lambda_inf(s),
                doublet.apply_u_minus_i(s)):
            devs.append(abs(op_state.norm() - s_norm))
    results.append(_result("unitarity of every representation operator", _dist(devs), 1e-12,
                           boost_note))

    devs = []
    for _ in range(trials):
        s = _random_doublet(rng, grid)
        for eps in (1, -1):
            twice = doublet.apply_u_lambda_inf(doublet.apply_u_lambda_inf(s, eps), eps)
            devs.append(_dist(twice.amps, s.amps))
        twice = doublet.apply_u_minus_i(doublet.apply_u_minus_i(s))
        devs.append(_dist(twice.amps, s.amps))
    results.append(_result("sector swap and momentum reversal are involutions", _dist(devs),
                           0.0))

    devs = []
    for _ in range(trials):
        s = _random_doublet(rng, grid, interior=2 * max_steps)
        g1, g2 = axial_element(), axial_element()
        left = doublet.apply_axial(doublet.apply_axial(s, g2), g1)
        right = doublet.apply_axial(s, doublet.axial_product(grid, g1, g2))
        devs.append(_dist(left.amps, right.amps))
    results.append(_result("axial subgroup homomorphism", _dist(devs), 1e-10, boost_note))

    devs = []
    for _ in range(trials):
        s = _random_doublet(rng, grid, interior=max_steps)
        g = axial_element()
        devs += [doublet.check_covariance(s, g, "lambda-inf"),
                 doublet.check_covariance(s, g, "minus-i")]
    results.append(_result("covariance under both discrete conjugations", _dist(devs), 1e-10,
                           boost_note))

    devs = []
    for _ in range(trials):
        s = _random_doublet(rng, grid)
        c_plus, c_minus = doublet.epsilon_components(s)
        plus = doublet.DoubletState(grid, c_plus / doublet.SQRT2, c_plus / doublet.SQRT2)
        minus = doublet.DoubletState(grid, c_minus / doublet.SQRT2, -c_minus / doublet.SQRT2)
        devs.append(_dist(plus.amps + minus.amps, s.amps))
    results.append(_result("per-point decomposition into swap eigenstates", _dist(devs), 1e-12))

    # U(lambda_inf) with eigenvalue eps' scales an eps-labelled eigenstate by eps * eps'
    devs = []
    for eps in (1, -1):
        psi = _complex_normal(rng, grid_size)
        psi = psi / np.linalg.norm(psi)
        state = doublet.make_epsilon_eigenstate(grid, psi, eps)
        for eps_u in (1, -1):
            swapped = doublet.apply_u_lambda_inf(state, eps_u)
            devs.append(_dist(swapped.amps, eps * eps_u * state.amps))
    results.append(_result("swap eigenstates carry their labels", _dist(devs), 1e-12))
    return results


# A bell-check trial keeps at most three dense complex N x N matrices alive:
# 50.5 MB traced peak (tracemalloc) at N = 1024, fourfold per doubling, so
# about 202 MB at N = 2048.
BELL_MAX_GRID_SIZE = 2048


def bell_checks(grid_size: int = 8, trials: int = 100, seed: int = 0) -> list[CheckResult]:
    if grid_size < 1:
        raise ValueError(f"grid size must be positive, got {grid_size}")
    if grid_size > BELL_MAX_GRID_SIZE:
        raise ValueError(f"grid-size must be at most {BELL_MAX_GRID_SIZE}, got {grid_size}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    rng = _rng(seed)
    grid = doublet.FrequencyGrid(1.0, 1.25, grid_size)
    results = []

    iso_devs, devs = [], []
    n = grid_size
    for _ in range(trials):
        s1 = _random_doublet(rng, grid)
        s2 = _random_doublet(rng, grid)
        lhs = np.vdot(qubit.sector_isometry(s1), qubit.sector_isometry(s2))
        rhs = np.vdot(s1.amps, s2.amps)
        iso_devs.append(abs(lhs - rhs))
        a1 = _complex_normal(rng, (n, n))
        a2 = _complex_normal(rng, (n, n))
        b1 = _complex_normal(rng, (2, 2))
        b2 = _complex_normal(rng, (2, 2))
        # at most three dense N x N matrices live at once (a1, a2 and a1 @ a2):
        # a2 goes before the adjoint is built, a1 before the identity
        op = qubit.iota(a1, b1)
        left = qubit.apply_block(op, qubit.apply_block(qubit.iota(a2, b2), s1))
        right = qubit.apply_block(qubit.iota(a1 @ a2, b1 @ b2), s1)
        del a2
        # adjoint: <s2, iota(A x B) s1> = <iota(A^H x B^H) s2, s1>
        forward = qubit.apply_block(op, s1)
        adj = qubit.apply_block(qubit.iota(a1.conj().T, b1.conj().T), s2)
        del a1, op
        unit = qubit.apply_block(qubit.iota(np.eye(n, dtype=complex), qubit.ID2), s1)
        devs += [_dist(unit.amps, s1.amps), _dist(left.amps, right.amps),
                 abs(np.vdot(s2.amps, forward.amps) - np.vdot(adj.amps, s1.amps))]
    results.append(_result("sector isometry preserves inner products", _dist(iso_devs), 1e-12))
    results.append(_result("observable embedding is a unital *-homomorphism", _dist(devs),
                           1e-10))

    devs = []
    for _ in range(trials):
        s = _random_doublet(rng, grid)
        a = _complex_normal(rng, (n, n))
        b = _complex_normal(rng, (2, 2))
        devs.append(qubit.expectation_equality(s, a, b)[2])
    results.append(_result("expectations agree on both sides of the dictionary", _dist(devs),
                           1e-10))

    dev = _dist([qubit.u_lambda_conjugation_check(1), qubit.u_lambda_conjugation_check(grid_size)])
    results.append(_result("conjugated sector swap equals I x sigma_x", dev, 1e-14))

    devs = []
    psi = _complex_normal(rng, n)
    psi = psi / np.linalg.norm(psi)
    identity = np.eye(n, dtype=complex)
    for eps in (1, -1):
        state = doublet.make_epsilon_eigenstate(grid, psi, eps)
        lhs, rhs, gap = qubit.expectation_equality(state, identity, qubit.PAULI_X)
        devs += [gap, abs(lhs - eps), abs(rhs - eps)]
    results.append(_result("swap eigenstates give correlation +-1", _dist(devs), 1e-12))

    # one-point doublets through the dictionary: the swap eigenstates are
    # maximally entangled, the forward-only state is a product, and any (f, b)
    # has the binary entropy of |f|^2; the four draws come after every other row's
    point = doublet.FrequencyGrid(1.0, 1.25, 1)
    cases = [(doublet.make_epsilon_eigenstate(point, [1.0], eps), math.log(2.0))
             for eps in (1, -1)]
    cases.append((doublet.DoubletState(point, [1.0], [0.0]), 0.0))
    for _ in range(4):
        s = _random_doublet(rng, point)
        p_fwd, p_bwd = np.abs(s.amps[:, 0]) ** 2
        cases.append((s, -p_fwd * math.log(p_fwd) - p_bwd * math.log(p_bwd)))
    dev = _dist([qubit.entanglement_entropy(qubit.doublet_to_path_polarization(s))
                 for s, _ in cases], [entropy for _, entropy in cases])
    results.append(_result("entanglement entropy hits 0 and ln 2 at the extremes", dev, 1e-12))
    return results
