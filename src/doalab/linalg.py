"""Complex dense linear algebra kernel for the estimators.

Hermitian eigendecomposition and the canonical covariance square root.
Everything here is a pure function over numpy arrays; matrices are plain
``complex128`` ndarrays with value semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative tolerance for accepting an input as Hermitian.
HERMITIAN_RTOL = 1e-8
# Negative eigenvalues within this relative band are rounding noise on a PSD
# input and get clamped to zero; anything more negative is a contract breach
# for square-root extraction.
PSD_CLAMP_RTOL = 1e-10

# Instrumentation: number of eigendecompositions performed by this process.
# The greedy iterative-MUSIC estimators advertise a single decomposition per
# estimate, and the benchmark asserts that through this counter.
_evd_calls = 0


def evd_call_count() -> int:
    """Return the number of ``hermitian_evd`` calls made so far."""
    return _evd_calls


def reset_evd_calls() -> None:
    """Reset the eigendecomposition call counter (test hook)."""
    global _evd_calls
    _evd_calls = 0


@dataclass(frozen=True)
class HermitianEvd:
    """Eigenpairs of a Hermitian matrix, eigenvalues sorted descending.

    Attributes:
        eigenvalues: Real eigenvalues in descending order.
        eigenvectors: Unitary matrix whose columns are the matching
            orthonormal eigenvectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_evd(R: np.ndarray) -> HermitianEvd:
    """Eigendecompose a Hermitian matrix.

    The input is symmetrized internally before decomposition, so tiny
    asymmetries from accumulated rounding are tolerated.  Negative
    eigenvalues within ``PSD_CLAMP_RTOL`` of the largest one are clamped to
    zero, which makes positive semidefinite inputs come out exactly PSD.

    Args:
        R: Square matrix, Hermitian within ``HERMITIAN_RTOL`` (relative
            Frobenius).

    Returns:
        HermitianEvd with descending eigenvalues.

    Raises:
        ValueError: If the input is not square, contains non-finite entries,
            or is not Hermitian within tolerance.
    """
    global _evd_calls
    R = np.asarray(R)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {R.shape}")
    if not np.all(np.isfinite(R)):
        raise ValueError("matrix contains non-finite entries")
    # Compared at unit scale: Frobenius norms of R itself overflow or
    # underflow at extreme scales and would silently pass any matrix.
    scale = np.max(np.abs(R), initial=0.0)
    unit = R / scale if scale > 0 else R
    if np.linalg.norm(unit - unit.conj().T) > HERMITIAN_RTOL * np.linalg.norm(unit):
        raise ValueError("matrix is not Hermitian within tolerance")
    _evd_calls += 1
    # LAPACK returns ascending eigenvalues; flip to descending.
    w, V = np.linalg.eigh(0.5 * (R + R.conj().T))
    w = w[::-1].copy()
    V = V[:, ::-1].copy()
    if w.size:
        lam_max = max(w[0], 0.0)
        tiny = w < 0
        tol = PSD_CLAMP_RTOL * lam_max
        w[tiny & (np.abs(w) <= tol)] = 0.0
    return HermitianEvd(eigenvalues=w, eigenvectors=V)


def covariance_sqrt(evd: HermitianEvd) -> np.ndarray:
    """Canonical square root V @ diag(sqrt(eigenvalues)) of a PSD matrix.

    Column ``i`` is the i-th eigenvector scaled by the square root of its
    eigenvalue, so the columns split into signal-then-noise blocks exactly as
    the eigenvalues do.  Satisfies ``sqrt @ sqrt.conj().T == R`` up to
    rounding.

    Raises:
        ValueError: If any eigenvalue is negative (beyond the clamp already
            applied by :func:`hermitian_evd`).
    """
    w = np.asarray(evd.eigenvalues, dtype=float)
    if np.any(w < 0):
        raise ValueError("negative eigenvalue: matrix is not positive semidefinite")
    return evd.eigenvectors * np.sqrt(w)[None, :]
