"""Two-sector massless doublet states on a log-spaced frequency lattice.

A state holds one complex (2, N) array: row 0 is the forward sector, row 1
the backward one, so the two-valued internal index is the first axis.
Forward lattice point i carries momentum omega_i * (1, n); the backward point
carries its negative.  Amplitudes absorb the square root of the
scale-invariant measure, so boosts along n act as plain index shifts and
unitarity is the ordinary l2 statement, with no quadrature weights.

The discrete operators both reverse the sector axis: U(lambda_inf) is epsilon
times the sector swap, for the uniform eigenvalue epsilon = +-1 of the
representation, and momentum reversal is the plain swap.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import group

SQRT2 = math.sqrt(2.0)

LATTICE_TOL = 1e-9
LEAK_WARN_THRESHOLD = 1e-6

# exp(i lambda alpha) rounds at about eps * |lambda alpha|: near 1e-12 at this bound,
# while at |lambda| = 1e6 rounding alone breaks the 1e-10 axial homomorphism check
MAX_HELICITY = 1000


@dataclass(frozen=True)
class FrequencyGrid:
    """Log-spaced positive frequencies omega_min * ratio**i along one direction.

    Every real field must be finite, helicity an integer in [-1000, 1000].  A
    lattice past the float range is accepted; its top frequencies are inf and
    translations on it NaN.
    """

    omega_min: float
    ratio: float
    count: int
    theta: float = 0.0
    phi: float = 0.0
    helicity: int = 1

    def __post_init__(self):
        # an int compares exactly here, before isfinite converts it to a float
        if abs(self.helicity) > MAX_HELICITY:
            raise ValueError(f"helicity must be in [-{MAX_HELICITY}, {MAX_HELICITY}], "
                             f"got {self.helicity}")
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

    @functools.cached_property
    def omegas(self) -> np.ndarray:
        """The lattice frequencies, computed once per grid; the array is read-only."""
        i = np.arange(self.count)
        with np.errstate(over="ignore"):
            w = self.omega_min * self.ratio ** i
            # ratio**i can overflow where omega_min * ratio**i does not:
            # those points are taken in log space instead
            far = np.isinf(w)
            w[far] = np.exp(math.log(self.omega_min) + i[far] * math.log(self.ratio))
        w.flags.writeable = False
        return w

    @functools.cached_property
    def direction(self) -> np.ndarray:
        """The unit vector n(theta, phi), computed once per grid; the array is read-only."""
        n = group.direction_unit(self.theta, self.phi)
        n.flags.writeable = False
        return n

    @functools.cached_property
    def _coordinate_swap(self) -> np.ndarray:
        """group.coordinate_swap at the grid direction, computed once per grid; read-only."""
        m = group.coordinate_swap(self.theta, self.phi)
        m.flags.writeable = False
        return m

    def step(self) -> float:
        """Lattice spacing in log-frequency; boosts shift by multiples of it."""
        return math.log(self.ratio)


@dataclass(frozen=True, eq=False, init=False)
class DoubletState:
    """Forward and backward sector amplitudes over a shared frequency grid.

    ``amps`` is a read-only complex (2, N) array, forward row first, that
    never aliases the caller's arrays; ``psi_fwd`` and ``psi_bwd`` are views
    of its rows.  ``leaked_norm`` records squared norm dropped off the lattice
    by the most recent boost; it is diagnostic only and not part of the state
    proper.
    """

    grid: FrequencyGrid
    amps: np.ndarray
    leaked_norm: float = 0.0

    def __init__(self, grid: FrequencyGrid, psi_fwd, psi_bwd):
        f = np.asarray(psi_fwd, dtype=complex)
        b = np.asarray(psi_bwd, dtype=complex)
        n = grid.count
        if f.shape != (n,) or b.shape != (n,):
            raise ValueError(f"amplitudes must have shape ({n},), got {f.shape} and {b.shape}")
        _fill(self, grid, np.array([f, b]), 0.0)

    @property
    def psi_fwd(self) -> np.ndarray:
        return self.amps[0]

    @property
    def psi_bwd(self) -> np.ndarray:
        return self.amps[1]

    def norm(self) -> float:
        """The l2 norm as one dot product; a NaN amplitude gives NaN."""
        return math.sqrt(np.vdot(self.amps, self.amps).real)


def _fill(s: DoubletState, grid: FrequencyGrid, amps: np.ndarray, leaked_norm: float) -> None:
    amps.flags.writeable = False
    object.__setattr__(s, "grid", grid)
    object.__setattr__(s, "amps", amps)
    object.__setattr__(s, "leaked_norm", leaked_norm)


def _state(grid: FrequencyGrid, amps: np.ndarray, leaked_norm: float = 0.0) -> DoubletState:
    """A state over (2, N) amplitudes that no caller keeps a writable handle on, without a copy."""
    s = object.__new__(DoubletState)
    _fill(s, grid, amps, leaked_norm)
    return s


def _check_epsilon(epsilon) -> None:
    if epsilon not in (1, -1):
        raise ValueError(f"epsilon must be +1 or -1, got {epsilon}")


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

    For p = omega_i (1, n) the pairing is eta(p, a) = omega_i (a0 - n.a).  The
    phases are written as cos and sin into one (2, N) buffer, the backward row
    conjugate; this gives the bits of exp(1j * x).  ``a`` must be a finite
    4-vector; a lattice past the float range still gives NaN amplitudes.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (4,) or not all(map(math.isfinite, a.tolist())):
        raise ValueError(f"translation a must be a finite 4-vector, got {a!r}")
    x = s.grid.omegas * (a[0] - s.grid.direction @ a[1:])
    phases = np.empty(s.amps.shape, dtype=complex)
    re, im = phases.real, phases.imag
    np.cos(x, out=re[0])
    re[1] = re[0]
    np.sin(x, out=im[0])
    np.negative(im[0], out=im[1])
    return _state(s.grid, np.multiply(s.amps, phases, out=phases))


def apply_axial_rotation(s: DoubletState, alpha: float) -> DoubletState:
    """Rotation about the grid direction: helicity phase exp(i*lambda*alpha) on both sectors."""
    phase = np.exp(1j * s.grid.helicity * alpha)
    return _state(s.grid, phase * s.amps)


def _shift(a: np.ndarray, k: int) -> tuple[np.ndarray, float]:
    """Shift a by k along its last axis, zero-filling; also the squared norm shifted out.

    A shift of 0 returns a itself.
    """
    if k == 0:
        return a, 0.0
    out = np.zeros_like(a)
    n = a.shape[-1]
    if k >= n or k <= -n:
        return out, float(np.sum(np.abs(a) ** 2))
    if k >= 0:
        out[..., k:] = a[..., :n - k]
        dropped = a[..., n - k:]
    else:
        out[..., :n + k] = a[..., -k:]
        dropped = a[..., :-k]
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
    if not math.isfinite(rapidity):
        raise ValueError(f"rapidity must be finite, got {rapidity!r}")
    step = s.grid.step()
    delta = rapidity / step
    k = round(delta)
    if abs(delta - k) > LATTICE_TOL:
        raise ValueError(
            f"rapidity {rapidity} is not an integer multiple of ln(ratio) = {step:.6g}; "
            "the lattice has no unitary boost for it")
    amps, leak = _shift(s.amps, k)
    if leak > 0 and leak > LEAK_WARN_THRESHOLD * s.norm() ** 2:
        warnings.warn(f"boost pushed {leak:.3e} of squared norm off the lattice",
                      RuntimeWarning, stacklevel=2)
    return _state(s.grid, amps, leaked_norm=leak)


def apply_u_lambda_inf(s: DoubletState, epsilon: int = 1) -> DoubletState:
    """U(lambda_inf): epsilon times the sector swap; applying it twice is exactly the identity.

    epsilon = +-1 is the uniform eigenvalue the representation assigns to the
    superluminal involution; a uniform sign commutes with every index shift,
    so the swap intertwines boosts for either choice.
    """
    _check_epsilon(epsilon)
    swapped = s.amps[::-1]
    return _state(s.grid, swapped if epsilon == 1 else -swapped)


def apply_u_minus_i(s: DoubletState) -> DoubletState:
    """Momentum reversal: exchanges the sectors, index-aligned on this lattice."""
    return _state(s.grid, s.amps[::-1])


def make_epsilon_eigenstate(grid: FrequencyGrid, psi, epsilon: int) -> DoubletState:
    """Doublet (psi, epsilon*psi)/sqrt(2): sector-swap eigenstate with eigenvalue epsilon."""
    _check_epsilon(epsilon)
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
    n = grid.direction
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
        a_conj = s.grid._coordinate_swap @ g.translation
    elif discrete == "minus-i":
        swap = apply_u_minus_i
        a_conj = -g.translation
    else:
        raise ValueError(f"discrete element must be 'lambda-inf' or 'minus-i', got {discrete!r}")
    lhs = swap(apply_axial(swap(s), g))
    rhs = apply_axial(s, AxialElement(a_conj, g.boost, g.rotation))
    return float(np.abs(lhs.amps - rhs.amps).max())


def doublet_to_json(s: DoubletState) -> str:
    """Serialize to the documented JSON layout (amplitudes as [re, im] pairs)."""
    doc = {
        "grid": asdict(s.grid),
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
