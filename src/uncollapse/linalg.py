"""Dense complex linear algebra for few-qubit operators.

Everything here operates on small square complex matrices (2x2 up to
64x64).  Decompositions are deterministically canonicalized (column
phases fixed, degenerate eigenspaces rebuilt from the canonical basis)
so that repeated runs produce identical matrices even when LAPACK's
choice within a degenerate subspace is arbitrary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNITARY_TOL = 1e-12
DEGENERACY_TOL = 1e-12


def as_complex_matrix(matrix, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex array with finite entries."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_square_matrix(matrix, name: str = "matrix") -> np.ndarray:
    a = as_complex_matrix(matrix, name)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def max_abs(matrix) -> float:
    """Largest entry magnitude; the element-wise norm used for tolerances."""
    a = np.asarray(matrix)
    return 0.0 if a.size == 0 else float(np.max(np.abs(a)))


def is_unitary(matrix, tol: float = UNITARY_TOL) -> bool:
    u = as_square_matrix(matrix)
    return max_abs(u.conj().T @ u - np.eye(u.shape[0])) <= tol


def _fix_column_phases(vectors: np.ndarray, rows: np.ndarray | None = None):
    """Rotate each column so its largest-magnitude entry is real positive.

    Returns the rotated copy and, when ``rows`` is given, a copy of it whose
    row j takes the phase removed from column j, so that a product
    ``vectors @ diag(s) @ rows`` is unchanged.
    """
    peaks = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    nonzero = peaks != 0.0
    phases = np.ones(peaks.size, dtype=complex)
    # numpy scalar abs and division: the array forms round differently
    phases[nonzero] = [z / abs(z) for z in peaks[nonzero]]
    out = vectors.copy()
    np.multiply(vectors, phases.conj(), out=out, where=nonzero)
    if rows is not None:
        rows = rows.copy()
        np.multiply(rows, phases[:, None], out=rows, where=nonzero[:, None])
    return out, rows


def _canonical_degenerate_basis(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Rebuild eigenvectors inside degenerate clusters deterministically.

    Within each cluster of eigenvalues closer than DEGENERACY_TOL (relative
    to the spectral scale) the basis is regenerated by projecting the
    canonical basis vectors onto the eigenspace and Gram-Schmidt
    orthonormalizing in index order.
    """
    n = values.size
    scale = max(1.0, float(np.max(np.abs(values)))) if n else 1.0
    out = vectors.copy()
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and values[stop] - values[stop - 1] <= DEGENERACY_TOL * scale:
            stop += 1
        size = stop - start
        if size > 1:
            block = out[:, start:stop]
            projector = block @ block.conj().T
            accepted: list[np.ndarray] = []
            for j in range(n):
                if len(accepted) == size:
                    break
                w = projector[:, j].copy()
                for b in accepted:
                    w -= b * np.vdot(b, w)
                norm = np.linalg.norm(w)
                if norm > 1e-8:
                    accepted.append(w / norm)
            if len(accepted) == size:
                out[:, start:stop] = np.column_stack(accepted)
        start = stop
    return _fix_column_phases(out)[0]


@dataclass(frozen=True)
class HermEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.conj().T


def herm_eig(matrix, tol: float = 1e-10) -> HermEig:
    """Eigendecomposition A = V diag(w) V† of a Hermitian matrix.

    Eigenvalues are returned ascending with orthonormal, deterministically
    phase-fixed eigenvector columns.  Inputs farther than ``tol`` from
    Hermitian (max-entry norm of A - A†) are rejected.
    """
    a = as_square_matrix(matrix)
    if max_abs(a - a.conj().T) > tol:
        raise ValueError("matrix is not Hermitian within tolerance")
    h = 0.5 * (a + a.conj().T)
    values, vectors = np.linalg.eigh(h)
    vectors = _canonical_degenerate_basis(values, np.asarray(vectors, dtype=complex))
    return HermEig(values=values, vectors=vectors)


@dataclass(frozen=True)
class SVDResult:
    """Singular value decomposition M = U diag(S) V with S descending.

    Note the convention: ``v`` already includes the conjugate transpose,
    i.e. ``matrix == u @ np.diag(s) @ v``.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s) @ self.v


def svd(matrix) -> SVDResult:
    """SVD of a square complex matrix with deterministic column phases."""
    a = as_square_matrix(matrix)
    u, s, vh = np.linalg.svd(a)
    u, vh = _fix_column_phases(np.asarray(u, dtype=complex), np.asarray(vh, dtype=complex))
    return SVDResult(u=u, s=s, v=vh)


def u2_exp(epsilon: float, coupling: float, duration: float) -> np.ndarray:
    """Closed-form 2x2 unitary exp(-i H t) for H = -(epsilon/2) sz + coupling sx.

    ``epsilon`` is the level asymmetry and ``coupling`` the tunnel matrix
    element, both in units with hbar = 1.
    """
    for name, value in (("epsilon", epsilon), ("coupling", coupling), ("duration", duration)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite")
    ax = float(coupling)
    az = -0.5 * float(epsilon)
    omega = np.hypot(ax, az)
    if omega == 0.0 or duration == 0.0:
        return np.eye(2, dtype=complex)
    phase = omega * duration
    c = np.cos(phase)
    s = np.sin(phase) / omega
    return np.array(
        [[c - 1j * s * az, -1j * s * ax],
         [-1j * s * ax, c + 1j * s * az]],
        dtype=complex,
    )


def basis_to_all_ones(index: int, dim: int) -> np.ndarray:
    """Permutation unitary sending basis vector ``index`` to the last one.

    The target is the all-ones register state, stored at index dim - 1.
    """
    if not 0 <= index < dim:
        raise ValueError(f"index {index} out of range for dimension {dim}")
    p = np.eye(dim, dtype=complex)
    if index != dim - 1:
        p[:, [index, dim - 1]] = p[:, [dim - 1, index]]
    return p
