"""Two-sector massless doublet states on a log-spaced frequency lattice.

A state holds one complex (2, N) array: row 0 is the forward sector, row 1
the backward one, so the two-valued internal index is the first axis.  A
stack of states holds (..., 2, N).  Every operator below, the norm and the
sector-swap components act on each state of a stack, with one parameter for
all or one per state along the same leading axes, as the group functions
do; one state gives the same bits as a stack containing it.
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
    of its rows.  The constructor builds one state; the operators also return
    stacks, with ``amps`` of shape (..., 2, N).  ``leaked_norm`` records
    squared norm dropped off the lattice by the most recent boost, a float for
    one state and an array of the leading shape for a stack; it is diagnostic
    only and not part of the state proper.
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
        return self.amps[..., 0, :]

    @property
    def psi_bwd(self) -> np.ndarray:
        return self.amps[..., 1, :]

    def norm(self):
        """The l2 norm of each state, as one dot product; a NaN amplitude gives NaN.

        A sector swap is a view with a negative sector stride.  The dot reads
        it in memory order, so it copies nothing and the swap keeps the norm
        bit for bit.
        """
        a = self.amps
        if a.strides[-2] < 0:
            a = a[..., ::-1, :]
        return _item(np.sqrt(_vdot(a, a).real))


def _vdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x, y> of each state of two stacks, over the last two axes in C order.

    Each is one BLAS dot, with the bits of ``np.vdot`` on that state alone.
    """
    return np.vecdot(x.reshape(x.shape[:-2] + (-1,)), y.reshape(y.shape[:-2] + (-1,)))


def _cabs(z) -> np.ndarray:
    """|z| of each complex value with the bits of abs() on one Python complex.

    np.abs on a complex array rounds differently in the last place.
    """
    return np.hypot(np.real(z), np.imag(z))


def _item(x):
    """A per-state value: the array for a stack, a Python scalar for one state."""
    return x.item() if x.ndim == 0 else x


def _fill(s: DoubletState, grid: FrequencyGrid, amps: np.ndarray, leaked_norm: float) -> None:
    amps.flags.writeable = False
    object.__setattr__(s, "grid", grid)
    object.__setattr__(s, "amps", amps)
    object.__setattr__(s, "leaked_norm", leaked_norm)


def _state(grid: FrequencyGrid, amps: np.ndarray, leaked_norm=0.0) -> DoubletState:
    """A state or stack over (..., 2, N) amplitudes that no caller keeps a writable handle on.

    Nothing is copied.
    """
    s = object.__new__(DoubletState)
    _fill(s, grid, amps, leaked_norm)
    return s


def _check_epsilon(epsilon) -> None:
    if epsilon not in (1, -1):
        raise ValueError(f"epsilon must be +1 or -1, got {epsilon}")


@dataclass(frozen=True, eq=False)
class AxialElement:
    """Element (a, B(chi) R(alpha)) of the subgroup adapted to the grid direction.

    A stack of elements has translations (..., 4) and boosts and rotations of
    the leading shape.
    """

    translation: np.ndarray = field(default_factory=lambda: np.zeros(4))
    boost: float = 0.0
    rotation: float = 0.0

    def __post_init__(self):
        a = np.asarray(self.translation, dtype=float)
        if a.shape[-1:] != (4,):
            raise ValueError(f"translation must be a 4-vector, got shape {a.shape}")
        object.__setattr__(self, "translation", a)


def apply_translation(s: DoubletState, a) -> DoubletState:
    """Multiply each amplitude by exp(i eta(p, a)) at its lattice momentum.

    For p = omega_i (1, n) the pairing is eta(p, a) = omega_i (a0 - n.a).  The
    phases are written as cos and sin into one (..., 2, N) buffer, the
    backward row conjugate; this gives the bits of exp(1j * x).  ``a`` must be
    a finite 4-vector, or one per state of a stack; a lattice past the float
    range still gives NaN amplitudes.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[-1:] != (4,) or not np.isfinite(a).all():
        raise ValueError(f"translation a must be a finite 4-vector, got {a!r}")
    x = s.grid.omegas * (a[..., 0] - group._dot(a[..., 1:], s.grid.direction))[..., None]
    phases = np.empty(s.amps.shape, dtype=complex)
    re, im = phases.real, phases.imag
    np.cos(x, out=re[..., 0, :])
    re[..., 1, :] = re[..., 0, :]
    np.sin(x, out=im[..., 0, :])
    np.negative(im[..., 0, :], out=im[..., 1, :])
    return _state(s.grid, np.multiply(s.amps, phases, out=phases))


def apply_axial_rotation(s: DoubletState, alpha) -> DoubletState:
    """Rotation about the grid direction: helicity phase exp(i*lambda*alpha) on both sectors."""
    phase = np.exp(1j * s.grid.helicity * np.asarray(alpha, dtype=float))
    return _state(s.grid, phase[..., None, None] * s.amps)


def _slide(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Shift every state of a by k along the last axis, zero-filling; also each state's leak.

    The leak is the squared norm a state shifted out.  A shift of 0 returns a itself.
    """
    if k == 0:
        return a, np.zeros(a.shape[:-2])
    out = np.zeros_like(a)
    n = a.shape[-1]
    if k >= n or k <= -n:
        dropped = a
    elif k > 0:
        out[..., k:] = a[..., :n - k]
        dropped = a[..., n - k:]
    else:
        out[..., :n + k] = a[..., -k:]
        dropped = a[..., :-k]
    lost = np.abs(dropped) ** 2
    return out, lost.reshape(lost.shape[:-2] + (-1,)).sum(axis=-1)


def _shift(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shift each state of a by its k (one for all, or one each); also each state's leak.

    One shift for the whole stack is one slice; distinct shifts take one
    slice per shift value, over the states that share it.
    """
    shifts = set(k.ravel().tolist())
    if len(shifts) == 1:
        return _slide(a, shifts.pop())
    out, leak = np.empty(a.shape, dtype=a.dtype), np.empty(k.shape)
    for shift in shifts:
        rows = k == shift
        out[rows], leak[rows] = _slide(a[rows], shift)
    return out, leak


def apply_axial_boost(s: DoubletState, rapidity) -> DoubletState:
    """Boost along the grid direction; rapidity k*ln(ratio) shifts indices by k.

    Both sectors shift the same way: the two cone representatives lie on one
    line through the origin, so a boost rescales their frequency labels by the
    same factor.  Off-lattice rapidities are rejected, since no index shift
    represents them unitarily.  Amplitudes pushed off the lattice are dropped;
    the squared norm each state loses is recorded on the result, and a
    RuntimeWarning is emitted for each state that loses more than 1e-6 of its
    own squared norm.  A stack of states takes one rapidity, or one per state.
    """
    rapidity = np.asarray(rapidity, dtype=float)
    if not np.isfinite(rapidity).all():
        raise ValueError(f"rapidity must be finite, got {_item(rapidity)!r}")
    step = s.grid.step()
    delta = rapidity / step
    k = np.rint(delta)
    off = np.abs(delta - k) > LATTICE_TOL
    if off.any():
        raise ValueError(
            f"rapidity {rapidity[off][0]} is not an integer multiple of ln(ratio) = {step:.6g}; "
            "the lattice has no unitary boost for it")
    amps, leak = _shift(s.amps, k.astype(int))
    if leak.any():
        for lost in np.asarray(leak)[leak > LEAK_WARN_THRESHOLD * s.norm() ** 2]:
            warnings.warn(f"boost pushed {lost:.3e} of squared norm off the lattice",
                          RuntimeWarning, stacklevel=2)
    return _state(s.grid, amps, leaked_norm=_item(leak))


def apply_u_lambda_inf(s: DoubletState, epsilon: int = 1) -> DoubletState:
    """U(lambda_inf): epsilon times the sector swap; applying it twice is exactly the identity.

    epsilon = +-1 is the uniform eigenvalue the representation assigns to the
    superluminal involution; a uniform sign commutes with every index shift,
    so the swap intertwines boosts for either choice.
    """
    _check_epsilon(epsilon)
    swapped = s.amps[..., ::-1, :]
    return _state(s.grid, swapped if epsilon == 1 else -swapped)


def apply_u_minus_i(s: DoubletState) -> DoubletState:
    """Momentum reversal: exchanges the sectors, index-aligned on this lattice."""
    return _state(s.grid, s.amps[..., ::-1, :])


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
    return AxialElement(g1.translation + group.act(h1, g2.translation),
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
        a_conj = group.act(s.grid._coordinate_swap, g.translation)
    elif discrete == "minus-i":
        swap = apply_u_minus_i
        a_conj = -g.translation
    else:
        raise ValueError(f"discrete element must be 'lambda-inf' or 'minus-i', got {discrete!r}")
    lhs = swap(apply_axial(swap(s), g))
    rhs = apply_axial(s, AxialElement(a_conj, g.boost, g.rotation))
    return _item(np.abs(lhs.amps - rhs.amps).max(axis=(-2, -1)))


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
