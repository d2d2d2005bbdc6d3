"""Exact 4x4 algebra for the superluminally extended Lorentz and Poincare groups.

The extension adjoins to the proper orthochronous component the involutions
lambda_inf(theta, phi), infinite-velocity limits of superluminal boosts along
the spatial direction n(theta, phi), together with -I and their product.
Everything here is plain float64 matrix algebra on momenta and group elements;
representation spaces live elsewhere.  Functions act on stacks along leading
axes (vectors (..., 4), matrices (..., 4, 4)); one element is the case with no
leading axis, and gives the same bits as a stack containing it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])
ID4 = np.eye(4)

Z_TAGS = ("I", "-I", "lambda-inf", "-lambda-inf")

LIGHTLIKE_BAND = 1e-9  # relative width of the |eta(p,p)| ~ 0 band


def _dot(u, v) -> np.ndarray:
    """Dot product over the last axis, one BLAS dot per element (as ``u @ v`` on vectors)."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def act(m, v) -> np.ndarray:
    """Matrices (..., 4, 4) applied to vectors (..., 4), broadcast over the leading axes."""
    return (np.asarray(m, dtype=float) @ np.asarray(v, dtype=float)[..., None])[..., 0]


def _unit(axis) -> np.ndarray:
    n = np.asarray(axis, dtype=float)
    return n / np.sqrt(_dot(n, n))[..., None]


def _outer(n) -> np.ndarray:
    return n[..., :, None] * n[..., None, :]


def minkowski(u, v):
    """Minkowski pairing u0*v0 - u.v, signature (+,-,-,-), over the last axis."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return _dot(u @ METRIC, v)


def direction_unit(theta, phi) -> np.ndarray:
    """Spatial unit vectors n(theta, phi), shape (..., 3)."""
    st = np.sin(theta)
    n = np.empty(np.broadcast_shapes(np.shape(theta), np.shape(phi)) + (3,))
    n[..., 0] = st * np.cos(phi)
    n[..., 1] = st * np.sin(phi)
    n[..., 2] = np.cos(theta)
    return n


def lightlike_representative(omega, theta=0.0, phi=0.0) -> np.ndarray:
    """Forward lightlike momenta omega * (1, n(theta, phi)), shape (..., 4)."""
    omega = np.asarray(omega, dtype=float)[..., None]
    spatial = omega * direction_unit(theta, phi)
    return np.concatenate([np.broadcast_to(omega, spatial.shape[:-1] + (1,)), spatial], axis=-1)


def coordinate_swap(theta, phi) -> np.ndarray:
    """Involution exchanging t with n.x and fixing the orthogonal spatial plane."""
    n = direction_unit(theta, phi)
    s = np.zeros(n.shape[:-1] + (4, 4))
    s[..., 0, 1:] = n
    s[..., 1:, 0] = n
    s[..., 1:, 1:] = np.eye(3) - _outer(n)
    return s


def make_lambda_inf(theta=0.0, phi=0.0, convention: str = "momentum") -> np.ndarray:
    """Superluminal involution along n(theta, phi), one per angle pair.

    ``coordinate`` returns the swap S itself (t <-> n.x), which fixes the
    aligned forward lightlike representative.  ``momentum`` returns -S, which
    sends omega*(1, n) to its negative and therefore exchanges the forward and
    backward cones when applied directly to momenta.  Both square to the
    identity.
    """
    if convention not in ("momentum", "coordinate"):
        raise ValueError(f"unknown convention {convention!r}")
    s = coordinate_swap(theta, phi)
    return -s if convention == "momentum" else s


def z_set(theta: float = 0.0, phi: float = 0.0, convention: str = "momentum") -> np.ndarray:
    """The elements I, -I, lambda_inf, -lambda_inf as one (4, 4, 4) stack, in Z_TAGS order."""
    li = make_lambda_inf(theta, phi, convention)
    return np.stack([ID4, -ID4, li, -li])


def boost_matrix(axis, rapidity) -> np.ndarray:
    """Proper orthochronous boosts: axes (..., 3), rapidities (...), result (..., 4, 4)."""
    n = _unit(axis)
    rapidity = np.asarray(rapidity, dtype=float)
    ch, sh = np.cosh(rapidity)[..., None], np.sinh(rapidity)[..., None]
    shn = sh * n
    m = np.empty(shn.shape[:-1] + (4, 4))
    m[..., 0, 0] = ch[..., 0]
    m[..., 0, 1:] = shn
    m[..., 1:, 0] = shn
    m[..., 1:, 1:] = np.eye(3) + (ch - 1.0)[..., None] * _outer(n)
    return m


def rotation_matrix(axis, angle) -> np.ndarray:
    """Spatial rotations by `angle` (...) about axes (..., 3) (Rodrigues form)."""
    n = _unit(axis)
    zero = np.zeros(n.shape[:-1])
    k = np.stack([zero, -n[..., 2], n[..., 1],
                  n[..., 2], zero, -n[..., 0],
                  -n[..., 1], n[..., 0], zero], axis=-1).reshape(n.shape[:-1] + (3, 3))
    angle = np.asarray(angle, dtype=float)[..., None, None]
    r3 = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
    m = np.zeros(r3.shape[:-2] + (4, 4))
    m[..., 0, 0] = 1.0
    m[..., 1:, 1:] = r3
    return m


def random_proper_orthochronous(rng: np.random.Generator,
                                max_rapidity: float = 3.0,
                                factors: int = 4, size=None) -> np.ndarray:
    """Random elements of the identity component, built constructively.

    A finite product of axis boosts and rotations, so eta-orthogonality,
    det = 1 and M[0,0] >= 1 hold by construction up to rounding.  ``size``
    follows numpy's convention: None gives one (4, 4) matrix, otherwise the
    result has shape size + (4, 4).  The whole stack is one
    rng.random(size + (factors, 3)) call: factor i of an element turns its
    (u, v, w) into an axis n(arccos(1 - 2u), 2 pi v), uniform on the sphere,
    and a parameter lo + (hi - lo) w, a rapidity in [-max_rapidity,
    max_rapidity) for even i (boosts) and an angle in [-pi, pi) for odd i
    (rotations).  So stacks drawn in turn equal one draw of them all.
    """
    lead = () if size is None else tuple(np.atleast_1d(size))
    u, v, w = np.moveaxis(rng.random(lead + (factors, 3)), -1, 0)
    axes = direction_unit(np.arccos(1.0 - 2.0 * u), 2.0 * np.pi * v)
    m = np.eye(4)
    for i in range(factors):
        matrix, reach = (boost_matrix, max_rapidity) if i % 2 == 0 else (rotation_matrix, np.pi)
        m = m @ matrix(axes[..., i, :], -reach + 2.0 * reach * w[..., i])
    return m


def eta_deviation(m) -> float:
    """Max-entry deviation of M^T eta M from eta (0 for genuine Lorentz matrices)."""
    m = np.asarray(m, dtype=float)
    return float(np.max(np.abs(m.T @ METRIC @ m - METRIC)))


@dataclass(frozen=True, eq=False)
class ExtPoincareElement:
    """Pairs (4x4 linear part, translation) with the semidirect product law.

    ``linear`` has shape (..., 4, 4) and ``translation`` (..., 4); their
    leading shapes must match, so one object can hold a stack of elements.
    """

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        linear = np.asarray(self.linear, dtype=float)
        translation = np.asarray(self.translation, dtype=float)
        if linear.shape[-2:] != (4, 4):
            raise ValueError(f"linear must have shape (..., 4, 4), got {linear.shape}")
        if translation.shape[-1:] != (4,):
            raise ValueError(f"translation must have shape (..., 4), got {translation.shape}")
        if translation.shape[:-1] != linear.shape[:-2]:
            raise ValueError(f"translation leading shape {translation.shape[:-1]} does not "
                             f"match linear leading shape {linear.shape[:-2]}")
        object.__setattr__(self, "linear", linear)
        object.__setattr__(self, "translation", translation)


def poincare_identity() -> ExtPoincareElement:
    return ExtPoincareElement(np.eye(4), np.zeros(4))


def poincare_mul(g: ExtPoincareElement, g2: ExtPoincareElement) -> ExtPoincareElement:
    """(h, a)(h', a') = (h h', a + h a'), broadcast over leading axes."""
    return ExtPoincareElement(g.linear @ g2.linear, g.translation + act(g.linear, g2.translation))


def poincare_inverse(g: ExtPoincareElement) -> ExtPoincareElement:
    minv = np.linalg.inv(g.linear)
    return ExtPoincareElement(minv, -act(minv, g.translation))


def alpha_z(z, n: ExtPoincareElement) -> ExtPoincareElement:
    """Automorphism (h, a) -> (z h z^-1, z a) for z in the discrete extension set.

    Every z in the set is its own inverse, so the conjugate is z h z; a z with
    z @ z != I is rejected.  z (..., 4, 4) broadcasts against n's leading
    axes.  Whether the conjugate of a proper orthochronous h lands back in
    that component is not asserted here; see the CLI report.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[-2:] != (4, 4) or not np.abs(z @ z - ID4).max() <= 1e-12:
        raise ValueError("alpha_z needs a 4x4 involution z (z @ z = I to 1e-12)")
    return ExtPoincareElement(z @ n.linear @ z, act(z, n.translation))


class OrbitClass(enum.Enum):
    MASSIVE_FORWARD = "massive-forward"
    MASSIVE_BACKWARD = "massive-backward"
    TACHYONIC = "tachyonic"
    LIGHTLIKE_FORWARD = "lightlike-forward"
    LIGHTLIKE_BACKWARD = "lightlike-backward"
    ZERO = "zero"


def _fold_columns(ufunc, a):
    """``ufunc`` applied left to right over the four columns of a (..., 4).

    numpy reduces a length-4 last axis several times slower than these three
    binary calls; for np.add the order, and so the rounding, is np.sum's.
    """
    return ufunc(ufunc(ufunc(a[..., 0], a[..., 1]), a[..., 2]), a[..., 3])


def classify_orbit(p):
    """Orbit labels from (sign of eta(p,p), sign of p0), over momenta (..., 4).

    |eta(p,p)| below 1e-9 times the squared Euclidean norm counts as
    lightlike; that norm is not Lorentz invariant, so neither is the band, and
    a boost can move a near-cone momentum across it.  The zero vector gets its
    own flag rather than an exception.
    One momentum gives an OrbitClass, a stack an object array of them.  A
    NaN or infinite component is rejected.
    """
    p = np.asarray(p, dtype=float)
    peak = _fold_columns(np.maximum, np.abs(p))
    bad = ~np.isfinite(peak)
    if bad.any():
        raise ValueError(f"momentum components must be finite, got {p[bad][0].tolist()}")
    # the classes are invariant under positive scaling: the power of two that
    # brings the largest component into [0.5, 1) rounds nothing and leaves
    # nothing to over- or underflow below
    p = np.ldexp(p, -np.frexp(peak)[1][..., None])
    scale = _fold_columns(np.add, p * p)
    inv = minkowski(p, p)
    forward = p[..., 0] > 0
    labels = np.where(
        np.abs(inv) < LIGHTLIKE_BAND * scale,
        np.where(forward, OrbitClass.LIGHTLIKE_FORWARD, OrbitClass.LIGHTLIKE_BACKWARD),
        np.where(inv > 0,
                 np.where(forward, OrbitClass.MASSIVE_FORWARD, OrbitClass.MASSIVE_BACKWARD),
                 OrbitClass.TACHYONIC))
    return np.where(peak == 0.0, OrbitClass.ZERO, labels)[()]


def z_orbit(p, theta: float = 0.0, phi: float = 0.0,
            convention: str = "momentum") -> list[tuple[str, np.ndarray, OrbitClass]]:
    """Images of momenta p (..., 4) under the four discrete elements, with orbit labels.

    For a timelike p the image classes always cover both massive classes and
    the tachyonic one: the extended group merges those orbits.  A non-finite
    image (NaN or infinite input, or overflow) is rejected by classify_orbit.
    """
    p = np.asarray(p, dtype=float)
    images = np.moveaxis(act(z_set(theta, phi, convention), p[..., None, :]), -2, 0)
    return list(zip(Z_TAGS, images, classify_orbit(images)))
