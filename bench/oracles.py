"""Reference values the benchmark checks the program's outputs against.

Each oracle is written here from the physics, not imported from the package,
so that a defect in the package cannot hide itself.
"""

from __future__ import annotations

import math

import numpy as np

# A sweep row fails when e_xx misses the closed form by more than this many
# of its own standard errors.  At 6 sigma a correct sampler fails a row with
# probability about 2e-9, so the failure count repeats from run to run.
STDERR_LIMIT = 6.0
# The printed `expected` column and the closed form must agree to rounding.
EXPECTED_TOL = 1e-9
# Lattice of checks.rep_checks: omega_min * ratio**i.
REP_OMEGA_MIN = 1.0
REP_RATIO = 1.25
# Classification band of group.classify_orbit, relative to |p|^2.
LIGHTLIKE_BAND = 1e-9


def kept_correlation(phi: float, visibility: float = 1.0, sigma: float = 0.0,
                     eta: float = 1.0, dark: float = 0.0) -> float:
    """E_XX over kept trials: eta*V*cos(phi) / (eta + 4*(1-eta)*dark).

    V = visibility * exp(-sigma^2/2).  With q_j = (1 +- V cos phi)/4 the
    Born weight of detector j, a lone click at j has probability
    (1-dark)^3 * (eta*q_j + (1-eta)*dark); the signed sum over detectors is
    the numerator and the plain sum the denominator.
    """
    keep = eta + 4.0 * (1.0 - eta) * dark
    if keep <= 0.0:
        raise ValueError("no trial is ever kept at eta=0, dark=0")
    v = visibility * math.exp(-0.5 * sigma * sigma)
    return eta * v * math.cos(phi) / keep


def orbit_images(p, theta: float, phi: float) -> dict[str, np.ndarray]:
    """Images of p under I, -I and the momentum-convention involutions.

    S exchanges t with n.x and fixes the plane orthogonal to n; in the
    momentum convention lambda_inf = -S.
    """
    p = np.asarray(p, dtype=float)
    n = np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                  math.cos(theta)])
    s = np.zeros((4, 4))
    s[0, 1:] = n
    s[1:, 0] = n
    s[1:, 1:] = np.eye(3) - np.outer(n, n)
    return {"I": p, "-I": -p, "lambda-inf": -(s @ p), "-lambda-inf": s @ p}


def orbit_class(p) -> str:
    """Orbit label from the sign of p0^2 - |p|^2 and of p0."""
    p = np.asarray(p, dtype=float)
    scale = float(p @ p)
    if scale == 0.0:
        return "zero"
    inv = float(p[0] ** 2 - p[1:] @ p[1:])
    if abs(inv) < LIGHTLIKE_BAND * scale:
        return "lightlike-forward" if p[0] > 0 else "lightlike-backward"
    if inv > 0:
        return "massive-forward" if p[0] > 0 else "massive-backward"
    return "tachyonic"


def nonfinite_doublet_outputs(doublet, grid_size: int, helicity: int, seed: int) -> list[str]:
    """Apply each operator rep_checks exercises once, on rep_checks' lattice.

    The state is random with its top lattice point empty, so the one-step
    boost drops nothing.  Returns the names of operators whose output holds a
    non-finite number.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _nonfinite_outputs(doublet, grid_size, helicity, seed)


def _nonfinite_outputs(doublet, grid_size, helicity, seed):
    rng = np.random.default_rng(seed)
    grid = doublet.FrequencyGrid(REP_OMEGA_MIN, REP_RATIO, grid_size, helicity=helicity)
    amps = rng.standard_normal((2, grid_size)) + 1j * rng.standard_normal((2, grid_size))
    amps[:, -1] = 0.0
    amps /= np.linalg.norm(amps)
    s = doublet.DoubletState(grid, amps[0], amps[1])
    step = grid.step()
    g1 = doublet.AxialElement(rng.uniform(-2, 2, 4), step, rng.uniform(-np.pi, np.pi))
    g2 = doublet.AxialElement(rng.uniform(-2, 2, 4), 0.0, rng.uniform(-np.pi, np.pi))
    psi = amps[0] / np.linalg.norm(amps[0])
    outputs = {
        "apply_translation": doublet.apply_translation(s, g1.translation),
        "apply_axial_rotation": doublet.apply_axial_rotation(s, g1.rotation),
        "apply_axial_boost": doublet.apply_axial_boost(s, step),
        "apply_u_lambda_inf": doublet.apply_u_lambda_inf(s),
        "apply_u_minus_i": doublet.apply_u_minus_i(s),
        "apply_axial": doublet.apply_axial(s, g1),
        "axial_product": doublet.axial_product(grid, g1, g2),
        "check_covariance lambda-inf": doublet.check_covariance(s, g1, "lambda-inf"),
        "check_covariance minus-i": doublet.check_covariance(s, g1, "minus-i"),
        "epsilon_components": doublet.epsilon_components(s),
        "make_epsilon_eigenstate +1": doublet.make_epsilon_eigenstate(grid, psi, 1),
        "make_epsilon_eigenstate -1": doublet.make_epsilon_eigenstate(grid, psi, -1),
    }
    return [name for name, value in outputs.items() if not _finite(value)]


def _finite(value) -> bool:
    if isinstance(value, tuple):
        return all(_finite(v) for v in value)
    if hasattr(value, "psi_fwd"):
        return _finite((value.psi_fwd, value.psi_bwd))
    if hasattr(value, "translation"):
        return _finite((value.translation, value.boost, value.rotation))
    return bool(np.all(np.isfinite(value)))
