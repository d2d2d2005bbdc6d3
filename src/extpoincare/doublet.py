"""Two-sector massless doublet states on a log-spaced frequency lattice.

A state holds one complex amplitude per lattice point and sector.  Forward
lattice point i carries momentum omega_i * (1, n); the backward point carries
its negative.  Amplitudes absorb the square root of the scale-invariant
measure, so boosts along n act as plain index shifts and unitarity is the
ordinary l2 statement, with no quadrature weights.

The discrete operators are the sector swap (with optional per-point signs)
and the momentum-reversal swap; on a single-direction lattice both are
index-aligned.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import group

SQRT2 = math.sqrt(2.0)

LATTICE_TOL = 1e-9
LEAK_WARN_THRESHOLD = 1e-6


@dataclass(frozen=True)
class FrequencyGrid:
    """Log-spaced positive frequencies omega_min * ratio**i along one direction.

    Every real field must be finite.  A lattice that climbs past the float
    range is accepted; its top frequencies are inf and translations on it NaN.
    """

    omega_min: float
    ratio: float
    count: int
    theta: float = 0.0
    phi: float = 0.0
    helicity: int = 1

    def __post_init__(self):
        for name in ("omega_min", "ratio", "theta", "phi", "helicity"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.omega_min <= 0:
            raise ValueError(f"omega_min must be positive, got {self.omega_min}")
        if self.ratio <= 1:
            raise ValueError(f"ratio must exceed 1, got {self.ratio}")
        if self.count < 1:
            raise ValueError(f"count must be at least 1, got {self.count}")
        if self.helicity != int(self.helicity):
            raise ValueError(f"helicity must be an integer, got {self.helicity}")

    def omegas(self) -> np.ndarray:
        """The lattice frequencies, computed once per grid; the array is read-only."""
        return self._omegas

    @functools.cached_property
    def _omegas(self) -> np.ndarray:
        i = np.arange(self.count)
        with np.errstate(over="ignore"):
            w = self.omega_min * self.ratio ** i
            # ratio**i can overflow where omega_min * ratio**i does not:
            # those points are taken in log space instead
            far = np.isinf(w)
            w[far] = np.exp(math.log(self.omega_min) + i[far] * math.log(self.ratio))
        w.flags.writeable = False
        return w

    def direction(self) -> np.ndarray:
        """The unit vector n(theta, phi), computed once per grid; the array is read-only."""
        return self._direction

    @functools.cached_property
    def _direction(self) -> np.ndarray:
        n = group.direction_unit(self.theta, self.phi)
        n.flags.writeable = False
        return n

    def step(self) -> float:
        """Lattice spacing in log-frequency; boosts shift by multiples of it."""
        return math.log(self.ratio)


@dataclass(frozen=True, eq=False)
class DoubletState:
    """Forward and backward sector amplitudes over a shared frequency grid.

    ``leaked_norm`` records squared norm dropped off the lattice by the most
    recent boost; it is diagnostic only and not part of the state proper.
    """

    grid: FrequencyGrid
    psi_fwd: np.ndarray
    psi_bwd: np.ndarray
    leaked_norm: float = 0.0

    def __post_init__(self):
        f = np.array(self.psi_fwd, dtype=complex)
        b = np.array(self.psi_bwd, dtype=complex)
        n = self.grid.count
        if f.shape != (n,) or b.shape != (n,):
            raise ValueError(f"amplitudes must have shape ({n},), got {f.shape} and {b.shape}")
        object.__setattr__(self, "psi_fwd", f)
        object.__setattr__(self, "psi_bwd", b)

    def norm(self) -> float:
        return math.sqrt(float(np.sum(np.abs(self.psi_fwd) ** 2)
                               + np.sum(np.abs(self.psi_bwd) ** 2)))


@dataclass(frozen=True, eq=False)
class SectorInvolution:
    """Diagonal unitary with entries +-1, squaring to the identity by construction.

    ``theta``/``phi``, when set, pin the involution to a direction; applying it
    to a grid pointing elsewhere is rejected.
    """

    signs: np.ndarray
    theta: float | None = None
    phi: float | None = None

    def __post_init__(self):
        s = np.asarray(self.signs, dtype=float)
        if s.ndim != 1 or not np.all(np.abs(s) == 1.0):
            raise ValueError("signs must be a 1-d array of +-1 entries")
        object.__setattr__(self, "signs", s)

    @classmethod
    def uniform(cls, epsilon: int, count: int,
                theta: float | None = None, phi: float | None = None) -> "SectorInvolution":
        if epsilon not in (1, -1):
            raise ValueError(f"epsilon must be +1 or -1, got {epsilon}")
        return cls(np.full(count, float(epsilon)), theta, phi)


@dataclass(frozen=True, eq=False)
class AxialElement:
    """Element (a, B(chi) R(alpha)) of the subgroup adapted to the grid direction."""

    translation: np.ndarray = field(default_factory=lambda: np.zeros(4))
    boost: float = 0.0
    rotation: float = 0.0

    def __post_init__(self):
        a = np.asarray(self.translation, dtype=float)
        if a.shape != (4,):
            raise ValueError(f"translation must be a 4-vector, got shape {a.shape}")
        object.__setattr__(self, "translation", a)


def apply_translation(s: DoubletState, a) -> DoubletState:
    """Multiply each amplitude by exp(i eta(p, a)) at its lattice momentum.

    For p = omega_i (1, n) the pairing is eta(p, a) = omega_i (a0 - n.a).
    """
    a = np.asarray(a, dtype=float)
    phases = np.exp(1j * (s.grid.omegas() * (a[0] - s.grid.direction() @ a[1:])))
    return DoubletState(s.grid, s.psi_fwd * phases, s.psi_bwd * np.conj(phases))


def apply_axial_rotation(s: DoubletState, alpha: float) -> DoubletState:
    """Rotation about the grid direction: helicity phase exp(i*lambda*alpha) on both sectors."""
    phase = np.exp(1j * s.grid.helicity * alpha)
    return DoubletState(s.grid, phase * s.psi_fwd, phase * s.psi_bwd)


def _shift(a: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    out = np.zeros_like(a)
    n = a.shape[0]
    if k >= n or k <= -n:
        return out, float(np.sum(np.abs(a) ** 2))
    if k >= 0:
        out[k:] = a[:n - k]
        dropped = a[n - k:] if k > 0 else a[:0]
    else:
        out[:n + k] = a[-k:]
        dropped = a[:-k]
    return out, float(np.sum(np.abs(dropped) ** 2))


def apply_axial_boost(s: DoubletState, rapidity: float) -> DoubletState:
    """Boost along the grid direction; rapidity k*ln(ratio) shifts indices by k.

    Both sectors shift the same way: the two cone representatives lie on one
    line through the origin, so a boost rescales their frequency labels by the
    same factor.  Off-lattice rapidities are rejected, since no index shift
    represents them unitarily.  Amplitudes pushed off the lattice are dropped;
    the lost squared norm is recorded on the result and a RuntimeWarning is
    emitted when it exceeds 1e-6 of the squared norm.
    """
    step = s.grid.step()
    delta = rapidity / step
    k = round(delta)
    if abs(delta - k) > LATTICE_TOL:
        raise ValueError(
            f"rapidity {rapidity} is not an integer multiple of ln(ratio) = {step:.6g}; "
            "the lattice has no unitary boost for it")
    fwd, leak_f = _shift(s.psi_fwd, k)
    bwd, leak_b = _shift(s.psi_bwd, k)
    leak = leak_f + leak_b
    total = s.norm() ** 2
    if total > 0 and leak > LEAK_WARN_THRESHOLD * total:
        warnings.warn(f"boost pushed {leak:.3e} of squared norm off the lattice",
                      RuntimeWarning, stacklevel=2)
    return DoubletState(s.grid, fwd, bwd, leaked_norm=leak)


def _check_direction(s: DoubletState, inv: SectorInvolution) -> None:
    if inv.theta is None and inv.phi is None:
        return
    theta = s.grid.theta if inv.theta is None else inv.theta
    phi = s.grid.phi if inv.phi is None else inv.phi
    n_inv = group.direction_unit(theta, phi)
    if np.max(np.abs(n_inv - s.grid.direction())) > 1e-12:
        raise ValueError("involution direction does not match the grid direction")


def apply_u_lambda_inf(s: DoubletState, involution: SectorInvolution | None = None) -> DoubletState:
    """Sector swap with per-point signs; applying it twice is exactly the identity.

    With a uniform sign epsilon this represents the superluminal involution on
    the doublet; non-uniform sign patterns still square to the identity but
    break the intertwining with boosts (the signs fail to commute with index
    shifts), so covariance checks use uniform signs.
    """
    if involution is None:
        involution = SectorInvolution.uniform(1, s.grid.count)
    if involution.signs.shape != (s.grid.count,):
        raise ValueError(f"involution has {involution.signs.shape[0]} signs "
                         f"for a grid of {s.grid.count} points")
    _check_direction(s, involution)
    c = involution.signs
    return DoubletState(s.grid, c * s.psi_bwd, c * s.psi_fwd)


def apply_u_minus_i(s: DoubletState) -> DoubletState:
    """Momentum reversal: exchanges the sectors, index-aligned on this lattice."""
    return DoubletState(s.grid, s.psi_bwd.copy(), s.psi_fwd.copy())


def make_epsilon_eigenstate(grid: FrequencyGrid, psi, epsilon: int) -> DoubletState:
    """Doublet (psi, epsilon*psi)/sqrt(2): sector-swap eigenstate with eigenvalue epsilon."""
    if epsilon not in (1, -1):
        raise ValueError(f"epsilon must be +1 or -1, got {epsilon}")
    psi = np.asarray(psi, dtype=complex)
    nrm = float(np.linalg.norm(psi))
    if nrm == 0.0:
        raise ValueError("cannot build an eigenstate from the zero vector")
    if abs(nrm - 1.0) > 1e-9:
        warnings.warn("input amplitudes were not normalized; normalizing",
                      UserWarning, stacklevel=2)
        psi = psi / nrm
    return DoubletState(grid, psi / SQRT2, epsilon * psi / SQRT2)


def epsilon_components(s: DoubletState) -> tuple[np.ndarray, np.ndarray]:
    """Per-point coefficients (c_plus, c_minus) in the sector-swap eigenbasis."""
    c_plus = (s.psi_fwd + s.psi_bwd) / SQRT2
    c_minus = (s.psi_fwd - s.psi_bwd) / SQRT2
    return c_plus, c_minus


def apply_axial(s: DoubletState, g: AxialElement) -> DoubletState:
    """Apply (a, B(chi) R(alpha)): rotation phase, then boost shift, then translation phase."""
    out = apply_axial_rotation(s, g.rotation)
    out = apply_axial_boost(out, g.boost)
    return apply_translation(out, g.translation)


def axial_product(grid: FrequencyGrid, g1: AxialElement, g2: AxialElement) -> AxialElement:
    """Group law on the axial subgroup: (a1 + h1 a2, chi1+chi2, alpha1+alpha2)."""
    n = grid.direction()
    h1 = group.boost_matrix(n, g1.boost) @ group.rotation_matrix(n, g1.rotation)
    return AxialElement(g1.translation + h1 @ g2.translation,
                        g1.boost + g2.boost,
                        g1.rotation + g2.rotation)


def check_covariance(s: DoubletState, g: AxialElement, discrete: str = "lambda-inf") -> float:
    """Max deviation of U(z) U(g) U(z)^-1 s from U(z g z^-1) s for z discrete.

    The conjugated element is known in closed form on the axial subgroup:
    boosts and rotations are untouched (their matrices commute with the
    involution), while translations map through the cone-preserving swap
    matrix for the superluminal involution and through -I for momentum
    reversal.  Using the cone-swapping matrix on the translation instead would
    flip the sign of every lattice phase and break the relation.
    """
    if discrete == "lambda-inf":
        swap = apply_u_lambda_inf
        flip = group.coordinate_swap(s.grid.theta, s.grid.phi)
        a_conj = flip @ g.translation
    elif discrete == "minus-i":
        swap = apply_u_minus_i
        a_conj = -g.translation
    else:
        raise ValueError(f"discrete element must be 'lambda-inf' or 'minus-i', got {discrete!r}")
    lhs = swap(apply_axial(swap(s), g))
    rhs = apply_axial(s, AxialElement(a_conj, g.boost, g.rotation))
    return float(np.maximum(np.max(np.abs(lhs.psi_fwd - rhs.psi_fwd)),
                            np.max(np.abs(lhs.psi_bwd - rhs.psi_bwd))))


def doublet_to_json(s: DoubletState) -> str:
    """Serialize to the documented JSON layout (amplitudes as [re, im] pairs)."""
    doc = {
        "grid": {
            "omega_min": s.grid.omega_min,
            "ratio": s.grid.ratio,
            "count": s.grid.count,
            "theta": s.grid.theta,
            "phi": s.grid.phi,
            "helicity": s.grid.helicity,
        },
        "psi_fwd": [[float(z.real), float(z.imag)] for z in s.psi_fwd],
        "psi_bwd": [[float(z.real), float(z.imag)] for z in s.psi_bwd],
    }
    return json.dumps(doc)


def doublet_from_json(text: str) -> DoubletState:
    doc = json.loads(text)
    g = doc["grid"]
    grid = FrequencyGrid(g["omega_min"], g["ratio"], g["count"],
                         g["theta"], g["phi"], g["helicity"])
    fwd = np.array([complex(re, im) for re, im in doc["psi_fwd"]])
    bwd = np.array([complex(re, im) for re, im in doc["psi_bwd"]])
    return DoubletState(grid, fwd, bwd)
