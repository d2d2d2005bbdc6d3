"""Invariant suites behind the report commands.

Each suite returns CheckResult rows with the measured worst-case deviation
against the pinned tolerance.  The eta-deviation table for conjugated
generators is informational only: whether those conjugates stay inside the
proper orthochronous component is deliberately not asserted anywhere.
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass
from functools import reduce

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


STREAM_RULE = ("check stream v1: quantity q of row r draws from numpy "
               "default_rng(SeedSequence(seed, spawn_key=(crc32(r), crc32(q)))), "
               "r the row name (rows evaluated together share their first row's "
               "name) and q the quantity name, both in UTF-8; each quantity is "
               "drawn in trial order, a block of trials in one call, and a complex "
               "normal takes each entry's real part, then its imaginary part")


def _stream(seed: int, row: str, quantity: str) -> np.random.Generator:
    """The generator of ``quantity`` in row ``row`` under STREAM_RULE; rejects a negative seed."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(
        seed, spawn_key=(zlib.crc32(row.encode()), zlib.crc32(quantity.encode()))))


def _trial_gap(a, b=0.0) -> np.ndarray:
    """Per-trial max entrywise |a - b| over every axis after the first; a NaN stays.

    One np.maximum.reduceat over the flat array, a segment per trial: numpy
    reduces many short trailing rows about half as fast.
    """
    gap = np.abs(np.subtract(a, b))
    flat = gap.reshape(-1)
    return np.maximum.reduceat(flat, np.arange(0, flat.size, flat.size // len(gap)))


def _largest(linear, translation) -> np.ndarray:
    """Per-sample max over a (..., 4, 4) linear and a (..., 4) translation part; a NaN stays.

    It folds columns with group._fold_columns: numpy reduces a length-4 last
    axis several times slower.
    """
    def fold(a):
        return group._fold_columns(np.maximum, a)
    return np.maximum(fold(fold(linear)), fold(translation))


def _element_gap(g: group.ExtPoincareElement, h: group.ExtPoincareElement) -> np.ndarray:
    """Per-sample max entrywise distance between (stacks of) group elements, both parts."""
    return _largest(np.abs(g.linear - h.linear), np.abs(g.translation - h.translation))


def _relative_gap(g: group.ExtPoincareElement, h: group.ExtPoincareElement) -> np.ndarray:
    """Per-sample entrywise |g - h|, both parts, over 1 + that sample's largest |g| entry.

    Rounding in a product grows with its entries: a correct product with an
    entry near 1e4 misses an absolute 1e-12 by about one ulp of that entry.
    """
    return (_element_gap(g, h)
            / (1.0 + _largest(np.abs(g.linear), np.abs(g.translation))))


# Every sampled row runs over blocks of trials (samples in group_checks) of
# max(1, TRIAL_BLOCK // per_trial) trials, per_trial being a trial's lattice
# points N (rep_checks), matrix entries N^2 (bell_checks) or 1 (group_checks,
# about 11 MB a block at 2.7 kB per sample).  So a row's peak does not grow
# with the trial count, and from N = 2049 (rep) and N = 46 (bell) on a block
# is one trial.
TRIAL_BLOCK = 4096


def _sampled_rows(rows, seed: int, trials: int, per_trial: int, evaluate, /,
                  **quantities) -> list[CheckResult]:
    """One CheckResult per (name, tolerance, note) in rows, over blocks of trials.

    Each quantity is a draw(rng, count) that returns count trials' values in
    one call, and draws from its own stream, _stream(seed, rows[0][0], name):
    so no result depends on the block size or on another row's draws.  A
    block is (count, *values), one value array per quantity in the declared
    order.  evaluate(blocks) yields, per block, one array per row with one
    value per trial: a deviation, of which the row keeps the worst (a NaN
    wins), or a failure flag, which it counts.

    evaluate is a generator, so a block's arrays are freed only as the next
    block's replace them.  Freed all at once at the end of each block, they
    let malloc hand the top of the heap back to the system, and the next
    block faults it in again: in a fresh process that cost
    rep_checks(4096, 1, 20) about 10k page faults, against 1k to 4.5k here
    (the count swings with the heap's layout).  No reference to a block's
    arrays is kept here, so evaluate can free one early.
    """
    size = max(1, TRIAL_BLOCK // per_trial)
    draws = [(draw, _stream(seed, rows[0][0], name)) for name, draw in quantities.items()]

    def block(count):
        return count, *(draw(rng, count) for draw, rng in draws)

    worst = [0.0] * len(rows)
    for values in evaluate(block(min(size, trials - start)) for start in range(0, trials, size)):
        for i, v in enumerate(values):
            worst[i] = (worst[i] + np.count_nonzero(v) if v.dtype == bool
                        else v.max(initial=worst[i]))
    return [_result(name, float(dev), tolerance, note)
            for (name, tolerance, note), dev in zip(rows, worst)]


# The orbit-class row counts only samples with |eta(p,p)| above this times
# max(|p|^2, |Lambda p|^2): the lightlike band scales with the Euclidean norm,
# which a boost changes.  Fixed at import, so a wider band still fails the row.
ORBIT_CLEAR = 2 * group.LIGHTLIKE_BAND
ORBIT_CLASS_ROW = "orbit class invariant under the identity component"


def group_checks(convention: str = "momentum", samples: int = 100,
                 seed: int = 0) -> list[CheckResult]:
    """Group invariants, each evaluated as stacked arrays over blocks of samples.

    The seven sampled rows are evaluated together over blocks of
    max(1, TRIAL_BLOCK // 1) = 4096 samples, so under STREAM_RULE they draw
    under the cone row's name, which differs between the conventions.  The
    quantities are angles and omega (the cone row), products and shifts (g1,
    g2, g3 of the associativity and inverse rows), conjugated and shift
    (alpha_z), momentum and boost (orbit class), plane and coefficients
    (pairing flip), and spatial and gap (the merged orbits).
    """
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    thetas, phis = np.meshgrid(np.linspace(0.0, np.pi, 10), np.linspace(0.0, 2 * np.pi, 10),
                               indexing="ij")
    m = group.make_lambda_inf(thetas, phis, convention)
    involution = _result("involution squares to identity (10x10 angle grid)",
                         _dist(m @ m, group.ID4), 1e-12)
    if convention == "momentum":
        cone = ("aligned representative maps to its negative", 1e-12, "")
    else:
        cone = ("aligned representative is fixed", 1e-12,
                "cone-swap check skipped under the coordinate convention")
    rows = [cone,
            ("product associativity", 1e-12,
             "deviation relative to 1 + the product's largest entry"),
            ("two-sided inverses", 1e-12, ""),
            ("alpha_z is involutive for every z", 1e-12, ""),
            (ORBIT_CLASS_ROW, 0.0, ""),
            ("pairing flips sign on the time-direction plane", 1e-12, ""),
            ("timelike orbit merges with both massive classes and tachyonic", 0.0, "")]

    def uniform(low, high, *shape):
        return lambda rng, count: rng.uniform(low, high, (count, *shape))

    def lorentz(max_rapidity, *shape):
        return lambda rng, count: group.random_proper_orthochronous(
            rng, max_rapidity, size=(count, *shape))

    zs = group.z_set(0.3, 1.1, convention)[:, None]
    e_t = np.array([1.0, 0, 0, 0])

    def values(count, angles, omega, products, shifts, conjugated, shift, momentum, boost, plane,
               coefficients, spatial, gap):
        """Each sampled row's per-sample values on one block of draws."""
        th, ph = angles.T
        p0 = group.lightlike_representative(omega, th, ph)
        image = group.act(group.make_lambda_inf(th, ph, convention), p0)
        cone = group._fold_columns(np.maximum,
                                   np.abs(image - (-p0 if convention == "momentum" else p0)))

        g1, g2, g3 = (group.ExtPoincareElement(products[:, i], shifts[:, i]) for i in range(3))
        associativity = _relative_gap(group.poincare_mul(group.poincare_mul(g1, g2), g3),
                                      group.poincare_mul(g1, group.poincare_mul(g2, g3)))
        inverse = _element_gap(group.poincare_mul(g1, group.poincare_inverse(g1)),
                               group.poincare_identity())

        n = group.ExtPoincareElement(conjugated, shift)
        try:
            involutive = _element_gap(group.alpha_z(zs, group.alpha_z(zs, n)), n).max(axis=0)
        except ValueError:  # alpha_z rejects a z that is no involution: a FAIL, not an input error
            involutive = np.full(count, math.nan)

        p, moved = momentum, group.act(boost, momentum)
        clear = (np.abs(group.minkowski(p, p))
                 > ORBIT_CLEAR * np.maximum(np.sum(p * p, axis=-1), np.sum(moved * moved, axis=-1)))
        orbit_moved = clear & (group.classify_orbit(moved) != group.classify_orbit(p))

        th, ph = plane.T
        li = group.make_lambda_inf(th, ph, convention)
        e_n = np.concatenate([np.zeros((count, 1)), group.direction_unit(th, ph)], axis=-1)
        c0, c1, c2, c3 = coefficients.T[..., None]
        u, v = c0 * e_t + c1 * e_n, c2 * e_t + c3 * e_n
        flip = group.minkowski(group.act(li, u), group.act(li, v)) + group.minkowski(u, v)

        timelike = np.concatenate([(np.linalg.norm(spatial, axis=-1) + gap)[:, None], spatial],
                                  axis=-1)
        classes = np.stack([cls for _, _, cls in group.z_orbit(timelike, 0.3, 1.1, convention)])
        covered = np.all([np.any(classes == wanted, axis=0)
                          for wanted in (group.OrbitClass.MASSIVE_FORWARD,
                                         group.OrbitClass.MASSIVE_BACKWARD,
                                         group.OrbitClass.TACHYONIC)], axis=0)
        return [cone, associativity, inverse, involutive, orbit_moved, np.abs(flip), ~covered]
    # angles and plane are (theta, phi) pairs; the products' rapidity is
    # capped at 2: the round trip rounds at eps * cond(M).  starmap holds a
    # block's draws only while its values are computed, so the next block is
    # drawn beside nothing but the last block's values.
    return [involution] + _sampled_rows(
        rows, seed, samples, 1, lambda blocks: itertools.starmap(values, blocks),
        angles=uniform(0.0, (np.pi, 2 * np.pi), 2), omega=uniform(0.5, 2.0),
        products=lorentz(2.0, 3), shifts=uniform(-2, 2, 3, 4),
        conjugated=lorentz(3.0), shift=uniform(-2, 2, 4),
        momentum=uniform(-2, 2, 4), boost=lorentz(3.0),
        plane=uniform(0.0, (np.pi, 2 * np.pi), 2), coefficients=uniform(-2, 2, 4),
        spatial=uniform(-2, 2, 3), gap=uniform(0.1, 2.0))


def ad_eta_table(convention: str = "momentum", seed: int = 0) -> list[dict]:
    """eta-deviation of conjugated generators; informational, never a failure.

    Axial generators conjugate to genuine Lorentz matrices; rotations and
    boosts in planes containing the involution direction generally do not.
    The twelve parameters are one draw under STREAM_RULE.
    """
    params = _stream(seed, "conjugated generator eta deviations", "parameter").uniform(
        -1.5, 1.5, 12)
    li = group.make_lambda_inf(0.0, 0.0, convention)
    n_hat, x_hat = group.direction_unit(0.0, 0.0), [1.0, 0, 0]
    generators = (("axial-boost", group.boost_matrix, n_hat),
                  ("axial-rotation", group.rotation_matrix, n_hat),
                  ("x-rotation", group.rotation_matrix, x_hat),
                  ("x-boost", group.boost_matrix, x_hat))
    # three draws of each generator, in turn
    return [{"generator": kind, "parameter": float(param),
             "eta_deviation": group.eta_deviation(li @ matrix(axis, param) @ li)}
            for (kind, matrix, axis), param in zip(3 * generators, params)]


def _doublets(grid: doublet.FrequencyGrid, amps: np.ndarray,
              interior: int = 0) -> doublet.DoubletState:
    """Unit doublets from complex normal draws (..., 2, N), forward row first.

    ``interior`` points at each end are zeroed before each state is scaled by
    its np.linalg.norm, computed as that function does: a dot of the real
    parts plus a dot of the imaginary parts.  ``amps`` is scaled in place.
    """
    n = grid.count
    if 2 * interior >= n:
        raise ValueError(f"interior padding {interior} leaves no support on {n} points")
    if interior > 0:
        amps[..., :interior] = 0.0
        amps[..., n - interior:] = 0.0
    flat = amps.reshape(amps.shape[:-2] + (-1,))
    norms = np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))
    amps /= norms[..., None, None]
    return doublet._state(grid, amps)


def _random_doublet(rng: np.random.Generator, grid: doublet.FrequencyGrid,
                    interior: int = 0) -> doublet.DoubletState:
    """A unit doublet drawn as _complex_normal(rng, (2, N)), the forward row first."""
    return _doublets(grid, _complex_normal(rng, (2, grid.count)), interior)


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex standard normals of ``shape``: each entry's real part, then its imaginary part.

    One standard_normal call fills the array through its float view, so no
    temporary is made, and rows drawn in order tile the whole draw bit for
    bit: (count, ...) at once is count draws of (...), and a matrix's row
    blocks drawn in turn are the matrix.
    """
    z = np.empty(shape, dtype=complex)
    rng.standard_normal(out=z.view(float))
    return z


def _complex_draw(*shape):
    """The draw(rng, count) of count complex normal arrays of ``shape``."""
    return lambda rng, count: _complex_normal(rng, (count, *shape))


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
    frequency stays at OMEGA_TOP.  The five sampled rows (unitarity,
    involutions, homomorphism, covariance, decomposition) are evaluated
    together over blocks of max(1, TRIAL_BLOCK // N) trials, so under
    STREAM_RULE they draw under the unitarity row's name.  A block draws its
    states once and builds three states from them, one per padding by the
    boost steps the rows' operators may shift; rows that pad alike share
    one.  The other quantities are translation, angle and steps (reach 3,
    the unitarity row), pair_* (reach 2, the homomorphism row's pair g1, g2)
    and cov_* (reach 2, covariance).  The rows run one at a time: a row
    holds the block's draws, one state and its temporaries, about 13 complex
    vectors of the block's trials * N lattice points (0.84 MB traced at
    N = 4096, one trial per block, and under 1 MB at N = 16 to 3000), and
    only the state outlives the row.  The swap-eigenstate row draws psi from
    a stream of its own.
    """
    if grid_size < 1:
        raise ValueError(f"grid size must be positive, got {grid_size}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    ratio = min(1.25, OMEGA_TOP ** (1.0 / max(grid_size - 1, 1)))
    grid = doublet.FrequencyGrid(1.0, ratio, grid_size, helicity=helicity)
    step = grid.step()
    # composed boosts shift up to 2*max_steps; padding must leave support
    max_steps = min(3, (grid_size - 1) // 4)
    n = grid_size
    boost_note = "" if max_steps else NO_BOOST_NOTE

    def operators(reach, shape=(), prefix=""):
        """An element's quantities: translation in [-reach, reach)^4, angle, steps of boost."""
        return {
            prefix + "translation":
                lambda rng, count: rng.uniform(-reach, reach, (count, *shape, 4)),
            prefix + "angle": lambda rng, count: rng.uniform(-np.pi, np.pi, (count, *shape)),
            prefix + "steps":
                lambda rng, count: rng.integers(-max_steps, max_steps + 1, (count, *shape))}

    def element(translation, angle, steps):
        return doublet.AxialElement(translation, steps * step, angle)

    def unitarity(s, g):
        s_norm = s.norm()
        return reduce(np.maximum, [np.abs(op_state.norm() - s_norm) for op_state in (
            doublet.apply_translation(s, g.translation),
            doublet.apply_axial_rotation(s, g.rotation),
            doublet.apply_axial_boost(s, g.boost),
            doublet.apply_u_lambda_inf(s),
            doublet.apply_u_minus_i(s))])

    def involutions(s):
        twice = [doublet.apply_u_lambda_inf(doublet.apply_u_lambda_inf(s, eps), eps)
                 for eps in (1, -1)]
        twice.append(doublet.apply_u_minus_i(doublet.apply_u_minus_i(s)))
        return _trial_gap(reduce(np.maximum, [np.abs(t.amps - s.amps) for t in twice]))

    # each pair quantity draws the pair (g1, g2) of a trial together
    def homomorphism(s, *pair):
        g1, g2 = (element(*(q[:, i] for q in pair)) for i in range(2))
        left = doublet.apply_axial(doublet.apply_axial(s, g2), g1)
        right = doublet.apply_axial(s, doublet.axial_product(grid, g1, g2))
        return _trial_gap(left.amps, right.amps)

    def covariance(s, g):
        return np.maximum(doublet.check_covariance(s, g, "lambda-inf"),
                          doublet.check_covariance(s, g, "minus-i"))

    # s is the eigenstate (c+, c+)/sqrt(2) plus the eigenstate (c-, -c-)/sqrt(2)
    def decomposition(s):
        c_plus, c_minus = doublet.epsilon_components(s)
        plus, minus = c_plus / doublet.SQRT2, c_minus / doublet.SQRT2
        return _trial_gap(np.stack([plus + minus, plus - minus], axis=-2), s.amps)

    # Every row's state comes from the block's one draw, zero-padded by the
    # boost steps its operators may shift, and rows with equal padding share
    # one: max_steps (unitarity, covariance), 2 * max_steps (homomorphism)
    # and 0 (involutions, decomposition).  Each state replaces the last, so
    # one is alive at a time; _doublets scales in place, so the padded ones
    # scale copies.  A row's temporaries go as it returns.
    def evaluate(blocks):
        for _, normals, *ops in blocks:
            s = _doublets(grid, normals.copy(), max_steps)
            unitary, covariant = unitarity(s, element(*ops[:3])), covariance(s, element(*ops[6:]))
            s = _doublets(grid, normals.copy(), 2 * max_steps)
            homomorphic = homomorphism(s, *ops[3:6])
            s = _doublets(grid, normals)
            yield [unitary, involutions(s), homomorphic, covariant, decomposition(s)]
    results = _sampled_rows(
        [("unitarity of every representation operator", 1e-12, boost_note),
         ("sector swap and momentum reversal are involutions", 0.0, ""),
         ("axial subgroup homomorphism", 1e-10, boost_note),
         ("covariance under both discrete conjugations", 1e-10, boost_note),
         ("per-point decomposition into swap eigenstates", 1e-12, "")],
        seed, trials, n, evaluate, states=_complex_draw(2, n), **operators(3),
        **operators(2, (2,), "pair_"), **operators(2, prefix="cov_"))

    # U(lambda_inf) with eigenvalue eps' scales an eps-labelled eigenstate by eps * eps'
    name = "swap eigenstates carry their labels"
    rng, devs = _stream(seed, name, "psi"), []
    for eps in (1, -1):
        psi = _complex_normal(rng, n)
        psi = psi / np.linalg.norm(psi)
        state = doublet.make_epsilon_eigenstate(grid, psi, eps)
        for eps_u in (1, -1):
            swapped = doublet.apply_u_lambda_inf(state, eps_u)
            devs.append(_dist(swapped.amps, eps * eps_u * state.amps))
    results.append(_result(name, _dist(devs), 1e-12))
    return results


# bell_checks draws A1 from its stream and evaluates the dictionary row in
# blocks of this many of A1's rows, so beyond A2 it holds one block of A1's
# rows and one of A1 A2's (an eighth of a matrix at N = 1024, against a half
# at 256 rows).  Formed in
# these blocks, A1 A2 and A1 psi kept the bits of the whole products at every
# N from 65 to 699 on one OpenBLAS thread and on two, and at 249 sizes from
# 700 to 2048 on two.
ROW_BLOCK = 64


def _row_slices(n: int) -> list[slice]:
    """Row blocks of ROW_BLOCK over 0..n; a tail of fewer than 4 rows joins the block before it.

    A single row goes to BLAS's vector kernel, whose bits differ from the
    full product's, and at N = 130 and 131 a tail of two or three rows
    rounded unlike the two-thread OpenBLAS product of the whole matrix.
    """
    edges = [*range(0, n, ROW_BLOCK), n]
    if len(edges) > 2 and edges[-1] - edges[-2] < 4:
        del edges[-2]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


# A bell-check trial makes two dense complex N x N draws, A1 and A2, and
# keeps one matrix alive, A2, plus a block of ROW_BLOCK rows of A1 and of
# A1 A2: A1 has a stream of its own, from which the dictionary row draws it
# one row block at a time, the expectations row and the embedding's adjoint
# read A2 before it is freed, and the unit row's identity is built after
# that.  Its dense draws make no temporary of a matrix's size, and the
# adjoint reads A2^T as a view; from N = 46 on a block is one trial.  Traced
# peak (tracemalloc): 18.2 MiB at N = 1024 (1.14 matrices of 16 MiB) and
# 68.3 MiB at N = 2048 (1.07 matrices of 64 MiB).  At N = 8 a block holds 64
# trials and the suite peaks at 0.39 MB.
BELL_MAX_GRID_SIZE = 2048


def bell_checks(grid_size: int = 8, trials: int = 100, seed: int = 0) -> list[CheckResult]:
    """Dictionary invariants on omega_i = 1.25**i with N = grid_size points.

    The three sampled rows (isometry, embedding, expectations) are evaluated
    together over blocks of max(1, TRIAL_BLOCK // N^2) trials, so under
    STREAM_RULE they draw under the isometry row's name, each quantity for a
    block in one call.  The expectations row reads the dictionary row's s1,
    A2 and B2, so a trial draws two dense N x N matrices, A1 and A2.  The
    dictionary row keeps A2 whole and draws A1 from its stream in blocks of
    ROW_BLOCK rows (_row_slices; one slice up to N = 64), each block used and
    freed before the next is drawn: A1 enters only the product part.  The
    unit part acts by the identity, and the *-part compares
    <s2, iota(A2 x B2) s1> with <iota(A2^H x B2^H) s2, s1>, both through
    qubit.apply_block.  Traced peak: 18.2 MiB at N = 1024 and 68.3 MiB at
    N = 2048, the cap.
    """
    if grid_size < 1:
        raise ValueError(f"grid size must be positive, got {grid_size}")
    if grid_size > BELL_MAX_GRID_SIZE:
        raise ValueError(f"grid-size must be at most {BELL_MAX_GRID_SIZE}, got {grid_size}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    grid = doublet.FrequencyGrid(1.0, 1.25, grid_size)
    n = grid_size
    states, factor = _complex_draw(2, n), _complex_draw(2, 2)

    def rows_of(a, b, s):
        """Those rows of iota(A x B) s, from a block of A's rows, for the product part."""
        return qubit.apply_block(qubit.BlockOperator(a, b), s).amps

    # a block of more than one trial has N <= 45, so one slice: A1's rows are
    # drawn in trial order
    def dictionary(blocks):
        for count, d1, d2, a1, a2, b1, b2 in blocks:
            s1, s2 = _doublets(grid, d1), _doublets(grid, d2)
            iso = doublet._cabs(doublet._vdot(qubit.sector_isometry(s1), qubit.sector_isometry(s2))
                                - doublet._vdot(s1.amps, s2.amps))
            inner = qubit.apply_block(qubit.iota(a2, b2), s1)
            b12 = b1 @ b2
            left, right = np.empty_like(s1.amps), np.empty_like(s1.amps)
            for rows in _row_slices(n):
                a = _complex_normal(a1, (count, rows.stop - rows.start, n))
                left[..., rows] = rows_of(a, b1, inner)
                right[..., rows] = rows_of(a @ a2, b12, s1)
                del a  # freed before the next block's rows are drawn
            expectation = qubit.expectation_equality(s1, a2, b2)[2]
            # adjoint: <s2, iota(A2 x B2) s1> = <iota(A2^H x B2^H) s2, s1>, and
            # iota(A^H x B^H) psi = conj(iota(A^T x B^T) conj(psi)) on transposed views
            transposed = qubit.iota(np.swapaxes(a2, -1, -2), np.swapaxes(b2, -1, -2))
            adj = qubit.apply_block(transposed, doublet._state(grid, s2.amps.conj())).amps.conj()
            del a2, transposed  # freed before the unit row builds its N x N identity
            unit = qubit.apply_block(qubit.iota(np.eye(n, dtype=complex), qubit.ID2), s1)
            yield [iso, reduce(np.maximum, [
                _trial_gap(unit.amps, s1.amps), _trial_gap(left, right),
                doublet._cabs(doublet._vdot(s2.amps, inner.amps) - doublet._vdot(adj, s1.amps))]),
                expectation]
    results = _sampled_rows([("sector isometry preserves inner products", 1e-12, ""),
                             ("observable embedding is a unital *-homomorphism", 1e-10, ""),
                             ("expectations agree on both sides of the dictionary", 1e-10, "")],
                            seed, trials, n * n, dictionary, s1=states, s2=states,
                            # A1's value is its generator: the row draws it by row blocks
                            a1=lambda rng, count: rng, a2=_complex_draw(n, n), b1=factor, b2=factor)

    dev = _dist([qubit.u_lambda_conjugation_check(1), qubit.u_lambda_conjugation_check(grid_size)])
    results.append(_result("conjugated sector swap equals I x sigma_x", dev, 1e-14))

    name, devs = "swap eigenstates give correlation +-1", []
    psi = _complex_normal(_stream(seed, name, "psi"), n)
    psi = psi / np.linalg.norm(psi)
    identity = np.eye(n, dtype=complex)
    for eps in (1, -1):
        state = doublet.make_epsilon_eigenstate(grid, psi, eps)
        lhs, rhs, gap = qubit.expectation_equality(state, identity, qubit.PAULI_X)
        devs += [gap, abs(lhs - eps), abs(rhs - eps)]
    results.append(_result(name, _dist(devs), 1e-12))

    # seven one-point doublets, one stack through reduced_state: the swap
    # eigenstates are maximally entangled, the forward-only state is a
    # product, and the four drawn (f, b) have the binary entropy of |f|^2
    name = "entanglement entropy hits 0 and ln 2 at the extremes"
    point = doublet.FrequencyGrid(1.0, 1.25, 1)
    drawn = _doublets(point, _complex_normal(_stream(seed, name, "states"), (4, 2, 1))).amps
    amps = np.concatenate([[doublet.make_epsilon_eigenstate(point, [1.0], eps).amps
                            for eps in (1, -1)], [[[1.0], [0.0]]], drawn])
    dev = _dist(qubit.entanglement_entropy(qubit.reduced_state(doublet._state(point, amps))),
                [math.log(2.0)] * 2 + [0.0] + [-np.sum(p * np.log(p)) for p in np.abs(drawn) ** 2])
    results.append(_result(name, dev, 1e-12))
    return results
