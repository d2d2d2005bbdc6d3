"""Unitary dictionary between doublet states and two-qubit states.

The sector isometry V sends psi_fwd (+) psi_bwd to psi_fwd x |fwd> +
psi_bwd x |bwd>, defined on the swap eigenstates and extended linearly; on a
doublet's (2, N) amplitude array it only relabels (sector, point) as (point,
sector), a transpose.  The observable embedding iota realizes A x B as the
2x2 block matrix with blocks b_ij * A acting on the stacked doublet; it is a
unital *-homomorphism, and under V the sector swap becomes I x sigma_x.
Stacks of doublets, and stacks (..., N, N) and (..., 2, 2) of the factors,
act state by state along the leading axes, with the bits of one state alone.

Two-qubit states follow the ordered basis (+H, +V, -H, -V): direction qubit
first, polarization second, with the internal dictionary fwd -> H, bwd -> V.
A doublet's two-qubit state, reduced_state, is its density matrix with
frequency traced out; it is pure when the two sectors are parallel, as at
one point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .doublet import (DoubletState, FrequencyGrid, _cabs, _item, _state, _vdot,
                      apply_u_lambda_inf)

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """iota(A x B) on stacked doublets (psi_fwd; psi_bwd), kept as its validated factors.

    Block (i, j) is b_ij * A; on V's (N, 2) relabelling W it acts as W -> A W B^T.
    """

    a: np.ndarray
    b: np.ndarray

    @property
    def sector_dim(self) -> int:
        return self.a.shape[-1]


def sector_isometry(s: DoubletState) -> np.ndarray:
    """V applied to a doublet: the (N, 2) transpose of its amplitudes, column 0 = fwd."""
    return np.swapaxes(s.amps, -1, -2)


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
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"A must be square, got shape {a.shape}")
    if b.shape[-2:] != (2, 2):
        raise ValueError(f"B must be 2x2, got shape {b.shape}")
    return BlockOperator(a, b)


def apply_block(op: BlockOperator, s: DoubletState) -> DoubletState:
    """The block action on a doublet: sector i becomes sum_j b_ij A psi_j.

    A psi_j is one matrix-vector product per sector, as for one state:
    ``amps @ A.T`` would round differently.
    """
    n = s.grid.count
    if op.sector_dim != n:
        raise ValueError(f"operator sector dimension {op.sector_dim} != grid size {n}")
    a_psi = (op.a[..., None, :, :] @ s.amps[..., None])[..., 0]
    b = op.b
    return _state(s.grid, b[..., :, 0, None] * a_psi[..., None, 0, :]
                  + b[..., :, 1, None] * a_psi[..., None, 1, :])


def u_lambda_block(n: int) -> BlockOperator:
    """The sector swap in block form: off-diagonal identity blocks."""
    return iota(np.eye(n), PAULI_X)


def expectation_equality(s: DoubletState, a, b) -> tuple[complex, complex, float]:
    """Both sides of <Psi, iota(AxB) Psi> = <V Psi, (AxB) V Psi> and their gap."""
    op = iota(a, b)
    lhs = _vdot(s.amps, apply_block(op, s).amps)
    w = sector_isometry(s)
    rhs = _vdot(w, op.a @ w @ np.swapaxes(op.b, -1, -2))
    return _item(lhs), _item(rhs), _item(_cabs(lhs - rhs))


def u_lambda_conjugation_check(n: int) -> float:
    """Max deviation of V U(lambda_inf) V^-1 from I x sigma_x at sector dimension n.

    Both sides permute the 2N basis vectors, so they are equal exactly when
    they move the distinct labels 0..2N-1, in the (point, sector) basis, alike.
    """
    labels = np.arange(2.0 * n).reshape(n, 2)
    grid = FrequencyGrid(1.0, 2.0, n)
    conjugated = sector_isometry(apply_u_lambda_inf(DoubletState(grid, *labels.T)))
    return float(np.max(np.abs(conjugated - labels @ PAULI_X.T)))


def reduced_state(s: DoubletState) -> np.ndarray:
    """The (..., 4, 4) two-qubit state that frequency-blind detectors see.

    Point i contributes the pure f_i|+H> + b_i|-V>, so rho = sum_i
    |psi_i><psi_i| is zero except on its (+H, -V) block, the sector Gram
    matrix W^T conj(W) with W = sector_isometry(s).  A one-point doublet
    (f, b) gives the pure state of f|+H> + b|-V>.
    """
    w = sector_isometry(s)
    rho = np.zeros(w.shape[:-2] + (4, 4), dtype=complex)
    rho[..., ::3, ::3] = np.swapaxes(w, -1, -2) @ w.conj()
    return rho


def entanglement_entropy(rho):
    """Von Neumann entropy (nats) of the direction qubit of a pure two-qubit state.

    0 for product states, ln 2 for maximally entangled ones; a float for one
    (4, 4) rho and an array for a stack.  Raises ValueError unless Tr rho and
    the purity Tr rho^2 are both within 1e-9 of 1.
    """
    rho = np.asarray(rho, dtype=complex)
    traces = np.trace([rho, rho @ rho], axis1=-2, axis2=-1)  # Tr rho, Tr rho^2
    gap = np.max(_cabs(traces - 1.0))
    if not gap <= 1e-9:  # a NaN fails too
        raise ValueError(f"rho's trace or purity Tr rho^2 deviates from 1 by {gap:.3e}")
    probs = np.linalg.eigvalsh(rho[..., ::2, ::2] + rho[..., 1::2, 1::2])  # polarization traced out
    probs = np.where(probs > 1e-15, probs, 1.0)  # 0 log 0 = 0
    return _item(-np.sum(probs * np.log(probs), axis=-1))
