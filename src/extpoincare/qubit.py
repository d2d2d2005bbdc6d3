"""Unitary dictionary between doublet states and two-qubit states.

The sector isometry V sends psi_fwd (+) psi_bwd to psi_fwd x |fwd> +
psi_bwd x |bwd>, defined on the swap eigenstates and extended linearly; on a
doublet's (2, N) amplitude array it only relabels (sector, point) as (point,
sector), a transpose.  The observable embedding iota realizes A x B as the
2x2 block matrix with blocks b_ij * A acting on the stacked doublet; it is a
unital *-homomorphism, and under V the sector swap becomes I x sigma_x.

Two-qubit states follow the ordered basis (+H, +V, -H, -V): direction qubit
first, polarization second, with the internal dictionary fwd -> H, bwd -> V.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .doublet import DoubletState, FrequencyGrid, apply_u_lambda_inf

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """Pure state on direction x polarization, basis (+H, +V, -H, -V)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.array(self.amplitudes, dtype=complex)
        if a.shape != (4,):
            raise ValueError(f"amplitudes must have shape (4,), got {a.shape}")
        object.__setattr__(self, "amplitudes", a)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """iota(A x B) on stacked doublets (psi_fwd; psi_bwd), kept as its validated factors.

    Block (i, j) is b_ij * A; on V's (N, 2) relabelling W it acts as W -> A W B^T.
    """

    a: np.ndarray
    b: np.ndarray

    @property
    def sector_dim(self) -> int:
        return self.a.shape[0]


def sector_isometry(s: DoubletState) -> np.ndarray:
    """V applied to a doublet: the (N, 2) transpose of its amplitudes, column 0 = fwd."""
    return s.amps.T


def isometry_matrix(n: int) -> np.ndarray:
    """V as a 2N x 2N permutation: stacked (fwd; bwd) -> row-major (point, sector)."""
    v = np.zeros((2 * n, 2 * n))
    idx = np.arange(n)
    v[2 * idx, idx] = 1.0
    v[2 * idx + 1, n + idx] = 1.0
    return v


def iota(a, b) -> BlockOperator:
    """Embed A x B as the block operator with blocks b_ij * A on the stacked doublet."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"A must be square, got shape {a.shape}")
    if b.shape != (2, 2):
        raise ValueError(f"B must be 2x2, got shape {b.shape}")
    return BlockOperator(a, b)


def apply_block(op: BlockOperator, s: DoubletState) -> DoubletState:
    """The block action on a doublet: sector i becomes sum_j b_ij A psi_j."""
    n = s.grid.count
    if op.sector_dim != n:
        raise ValueError(f"operator sector dimension {op.sector_dim} != grid size {n}")
    a_fwd, a_bwd = op.a @ s.psi_fwd, op.a @ s.psi_bwd
    (b00, b01), (b10, b11) = op.b
    return DoubletState(s.grid, b00 * a_fwd + b01 * a_bwd, b10 * a_fwd + b11 * a_bwd)


def u_lambda_block(n: int) -> BlockOperator:
    """The sector swap in block form: off-diagonal identity blocks."""
    return iota(np.eye(n), PAULI_X)


def expectation_equality(s: DoubletState, a, b) -> tuple[complex, complex, float]:
    """Both sides of <Psi, iota(AxB) Psi> = <V Psi, (AxB) V Psi> and their gap."""
    op = iota(a, b)
    lhs = complex(np.vdot(s.amps, apply_block(op, s).amps))
    w = sector_isometry(s)
    rhs = complex(np.vdot(w, op.a @ w @ op.b.T))
    return lhs, rhs, abs(lhs - rhs)


def u_lambda_conjugation_check(n: int) -> float:
    """Max deviation of V U(lambda_inf) V^-1 from I x sigma_x at sector dimension n.

    Both sides permute the 2N basis vectors, so they are equal exactly when
    they move the distinct labels 0..2N-1, in the (point, sector) basis, alike.
    """
    labels = np.arange(2.0 * n).reshape(n, 2)
    grid = FrequencyGrid(1.0, 2.0, n)
    conjugated = sector_isometry(apply_u_lambda_inf(DoubletState(grid, *labels.T)))
    return float(np.max(np.abs(conjugated - labels @ PAULI_X.T)))


def entanglement_entropy(t: TwoQubitState) -> float:
    """Von Neumann entropy (nats) of the reduced direction qubit.

    0 for product states, ln 2 for maximally entangled ones.
    """
    if abs(t.norm() - 1.0) > 1e-9:
        raise ValueError(f"state norm deviates from 1 by {abs(t.norm() - 1.0):.3e}")
    m = t.amplitudes.reshape(2, 2)
    sv = np.linalg.svd(m, compute_uv=False)
    probs = sv ** 2
    probs = probs[probs > 1e-15]
    return float(-np.sum(probs * np.log(probs)))


def doublet_to_path_polarization(s: DoubletState) -> TwoQubitState:
    """Single-mode doublet as a path/polarization state: (f, b) -> f|+H> + b|-V>."""
    if s.grid.count != 1:
        raise ValueError("only single-point grids map onto one path/polarization qubit pair")
    f, b = s.amps[:, 0]
    return TwoQubitState(np.array([f, 0.0, 0.0, b]))
