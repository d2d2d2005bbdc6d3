"""Exact 4x4 algebra for the superluminally extended Lorentz and Poincare groups.

The extension adjoins to the proper orthochronous component the involutions
lambda_inf(theta, phi), infinite-velocity limits of superluminal boosts along
the spatial direction n(theta, phi), together with -I and their product.
Everything here is plain float64 matrix algebra on momenta and group elements;
representation spaces live elsewhere.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])
ID4 = np.eye(4)

Z_TAGS = ("I", "-I", "lambda-inf", "-lambda-inf")

LIGHTLIKE_BAND = 1e-9  # relative width of the |eta(p,p)| ~ 0 band


def minkowski(u, v) -> float:
    """Minkowski pairing u0*v0 - u.v, signature (+,-,-,-)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(u @ METRIC @ v)


def direction_unit(theta: float, phi: float) -> np.ndarray:
    """Spatial unit vector n(theta, phi)."""
    st = np.sin(theta)
    return np.array([st * np.cos(phi), st * np.sin(phi), np.cos(theta)])


def lightlike_representative(omega: float, theta: float = 0.0, phi: float = 0.0) -> np.ndarray:
    """Forward lightlike momentum omega * (1, n(theta, phi))."""
    p = np.empty(4)
    p[0] = omega
    p[1:] = omega * direction_unit(theta, phi)
    return p


def coordinate_swap(theta: float, phi: float) -> np.ndarray:
    """Involution exchanging t with n.x and fixing the orthogonal spatial plane."""
    n = direction_unit(theta, phi)
    s = np.zeros((4, 4))
    s[0, 1:] = n
    s[1:, 0] = n
    s[1:, 1:] = np.eye(3) - np.outer(n, n)
    return s


def make_lambda_inf(theta: float = 0.0, phi: float = 0.0,
                    convention: str = "momentum") -> np.ndarray:
    """Superluminal involution along n(theta, phi).

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


def z_set(theta: float = 0.0, phi: float = 0.0,
          convention: str = "momentum") -> list[np.ndarray]:
    """The four discrete extension elements {I, -I, lambda_inf, -lambda_inf}, in Z_TAGS order."""
    li = make_lambda_inf(theta, phi, convention)
    return [np.eye(4), -np.eye(4), li, -li]


def boost_matrix(axis, rapidity: float) -> np.ndarray:
    """Proper orthochronous boost of the given rapidity along a spatial axis."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    ch, sh = np.cosh(rapidity), np.sinh(rapidity)
    m = np.empty((4, 4))
    m[0, 0] = ch
    m[0, 1:] = sh * n
    m[1:, 0] = sh * n
    m[1:, 1:] = np.eye(3) + (ch - 1.0) * np.outer(n, n)
    return m


def rotation_matrix(axis, angle: float) -> np.ndarray:
    """Spatial rotation by `angle` about a spatial axis (Rodrigues form)."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    k = np.array([[0.0, -n[2], n[1]],
                  [n[2], 0.0, -n[0]],
                  [-n[1], n[0], 0.0]])
    r3 = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
    m = np.eye(4)
    m[1:, 1:] = r3
    return m


def random_proper_orthochronous(rng: np.random.Generator,
                                max_rapidity: float = 3.0,
                                factors: int = 4) -> np.ndarray:
    """Random element of the identity component, built constructively.

    A finite product of axis boosts and rotations, so eta-orthogonality,
    det = 1 and M[0,0] >= 1 hold by construction up to rounding.
    """
    m = np.eye(4)
    for i in range(factors):
        axis = rng.standard_normal(3)
        while np.linalg.norm(axis) < 1e-3:
            axis = rng.standard_normal(3)
        if i % 2 == 0:
            m = m @ boost_matrix(axis, rng.uniform(-max_rapidity, max_rapidity))
        else:
            m = m @ rotation_matrix(axis, rng.uniform(-np.pi, np.pi))
    return m


def eta_deviation(m) -> float:
    """Max-entry deviation of M^T eta M from eta (0 for genuine Lorentz matrices)."""
    m = np.asarray(m, dtype=float)
    return float(np.max(np.abs(m.T @ METRIC @ m - METRIC)))


@dataclass(frozen=True, eq=False)
class ExtPoincareElement:
    """Pair (4x4 linear part, translation) with the semidirect product law."""

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        for name, shape in (("linear", (4, 4)), ("translation", (4,))):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
            object.__setattr__(self, name, a)


def poincare_identity() -> ExtPoincareElement:
    return ExtPoincareElement(np.eye(4), np.zeros(4))


def poincare_mul(g: ExtPoincareElement, g2: ExtPoincareElement) -> ExtPoincareElement:
    """(h, a)(h', a') = (h h', a + h a')."""
    return ExtPoincareElement(g.linear @ g2.linear, g.translation + g.linear @ g2.translation)


def poincare_inverse(g: ExtPoincareElement) -> ExtPoincareElement:
    minv = np.linalg.inv(g.linear)
    return ExtPoincareElement(minv, -(minv @ g.translation))


def alpha_z(z, n: ExtPoincareElement) -> ExtPoincareElement:
    """Automorphism (h, a) -> (z h z^-1, z a) for z in the discrete extension set.

    Every z in the set is its own inverse, so the conjugate is z h z; a z with
    z @ z != I is rejected.  Whether the conjugate of a proper orthochronous h
    lands back in that component is not asserted here; see the CLI report.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (4, 4) or not abs(z @ z - ID4).max() <= 1e-12:
        raise ValueError("alpha_z needs a 4x4 involution z (z @ z = I to 1e-12)")
    return ExtPoincareElement(z @ n.linear @ z, z @ n.translation)


class OrbitClass(enum.Enum):
    MASSIVE_FORWARD = "massive-forward"
    MASSIVE_BACKWARD = "massive-backward"
    TACHYONIC = "tachyonic"
    LIGHTLIKE_FORWARD = "lightlike-forward"
    LIGHTLIKE_BACKWARD = "lightlike-backward"
    ZERO = "zero"


def classify_orbit(p) -> OrbitClass:
    """Orbit label from (sign of eta(p,p), sign of p0).

    |eta(p,p)| below 1e-9 times the squared Euclidean norm counts as
    lightlike; the zero vector gets its own flag rather than an exception.
    A NaN or infinite component is rejected.
    """
    p = np.asarray(p, dtype=float)
    scale = sum(x * x for x in p.tolist())  # plain floats overflow to inf without a warning
    if not 1e-300 < scale < 1e300:
        # zero, non-finite, or near under- or overflow: the classes are
        # invariant under positive scaling, so divide by the largest component
        peak = float(abs(p).max())
        if not math.isfinite(peak):
            raise ValueError(f"momentum components must be finite, got {p.tolist()}")
        if peak == 0.0:
            return OrbitClass.ZERO
        p = p / peak
        scale = float(p @ p)
    inv = minkowski(p, p)
    if abs(inv) < LIGHTLIKE_BAND * scale:
        return OrbitClass.LIGHTLIKE_FORWARD if p[0] > 0 else OrbitClass.LIGHTLIKE_BACKWARD
    if inv > 0:
        return OrbitClass.MASSIVE_FORWARD if p[0] > 0 else OrbitClass.MASSIVE_BACKWARD
    return OrbitClass.TACHYONIC


def z_orbit(p, theta: float = 0.0, phi: float = 0.0,
            convention: str = "momentum") -> list[tuple[str, np.ndarray, OrbitClass]]:
    """Images of p under the four discrete elements, with orbit labels.

    For a timelike p the image classes always cover both massive classes and
    the tachyonic one: the extended group merges those orbits.  A non-finite
    image (NaN or infinite input, or overflow) is rejected by classify_orbit.
    """
    p = np.asarray(p, dtype=float)
    out = []
    for tag, z in zip(Z_TAGS, z_set(theta, phi, convention)):
        image = z @ p
        out.append((tag, image, classify_orbit(image)))
    return out
