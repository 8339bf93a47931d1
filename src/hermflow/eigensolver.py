"""Dense symmetric eigendecomposition and the tridiagonal kernel.

Backed by LAPACK through numpy; the contract enforced here is the similarity
residual ||M C_n - E_n C_n||_inf <= 1e-9 * (1 + ||M||_inf) and ascending
eigenvalue order.  Degenerate eigenvalues come with an arbitrary basis of the
eigenspace, so callers must compare invariant subspaces rather than
individual eigenvectors in that case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Spectrum", "SolverError", "eigh", "eigh_tridiagonal"]

_RESIDUAL_TOL = 1e-9
_SYMMETRY_TOL = 1e-9


class SolverError(RuntimeError):
    """Eigendecomposition failed to meet its residual contract."""


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with orthonormal eigenvectors in columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigh(M: np.ndarray) -> Spectrum:
    """Diagonalize a symmetric matrix.

    Raises
    ------
    ValueError
        If M is not square, holds a NaN or infinite entry, or is not symmetric
        within 1e-9.
    SolverError
        If the residual bound is violated.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        i, j = np.argwhere(~np.isfinite(M))[0]
        raise ValueError(f"matrix entry ({i}, {j}) is {M[i, j]}; expected finite entries")
    asym = np.abs(M - M.T).max() if M.size else 0.0
    if asym > _SYMMETRY_TOL:
        raise ValueError(f"matrix asymmetry {asym:.3e} exceeds {_SYMMETRY_TOL:.1e}")
    try:
        vals, vecs = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise SolverError(f"eigendecomposition did not converge: {exc}") from exc
    residual = np.abs(M @ vecs - vecs * vals).max(initial=0.0)
    scale = 1.0 + np.abs(M).max(initial=0.0)
    if residual > _RESIDUAL_TOL * scale:
        raise SolverError(f"residual {residual:.3e} exceeds {_RESIDUAL_TOL:.1e}*(1+||M||)")
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)


def eigh_tridiagonal(diag, offdiag) -> Spectrum:
    """Diagonalize a symmetric tridiagonal matrix given its diagonals.

    Shared kernel for Gauss quadrature generation (Golub-Welsch), which reads
    only the eigenvalues (the nodes); the weights come from the Christoffel sum.
    """
    diag = np.asarray(diag, dtype=float)
    offdiag = np.asarray(offdiag, dtype=float)
    n = diag.size
    if offdiag.size != max(n - 1, 0):
        raise ValueError(f"offdiag length {offdiag.size} does not match diag length {n}")
    M = np.diag(diag)
    if n > 1:
        M += np.diag(offdiag, 1) + np.diag(offdiag, -1)
    return eigh(M)
