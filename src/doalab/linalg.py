"""Complex dense linear algebra kernel for the estimators.

The one checked, counted Hermitian eigendecomposition every estimate starts
from.  Matrices are plain ``complex128`` ndarrays with value semantics.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance for accepting an input as Hermitian.
HERMITIAN_RTOL = 1e-8
# Negative eigenvalues within this relative band are rounding noise on a PSD
# input and get clamped to zero; anything more negative rejects the input.
PSD_CLAMP_RTOL = 1e-10

# Instrumentation: number of eigendecompositions performed by this process.
# The greedy iterative-MUSIC estimators advertise a single decomposition per
# estimate, and the benchmark asserts that through this counter.
_evd_calls = 0


def evd_call_count() -> int:
    """Return the number of ``hermitian_evd`` calls made so far."""
    return _evd_calls


def hermitian_evd(R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a Hermitian positive semidefinite matrix.

    An input that is Hermitian within tolerance but not exactly is
    symmetrized before decomposition, so tiny asymmetries from accumulated
    rounding are tolerated; an exactly Hermitian input is decomposed as
    given.  Negative eigenvalues within ``PSD_CLAMP_RTOL`` of the largest
    one are clamped to zero, which makes positive semidefinite inputs come
    out exactly PSD; any more negative eigenvalue rejects the input, since
    every estimator takes square roots of the eigenvalues.  The eigenvalues
    and eigenvectors are descending views of LAPACK's ascending output.

    Args:
        R: Square matrix, Hermitian within ``HERMITIAN_RTOL`` (relative
            Frobenius).

    Returns:
        ``(eigenvalues, eigenvectors)``: the real eigenvalues, descending,
        and the unitary matrix whose columns are the matching orthonormal
        eigenvectors.

    Raises:
        ValueError: If the input is not square, contains non-finite entries,
            is not Hermitian within tolerance, or is not positive
            semidefinite.
    """
    global _evd_calls
    R = np.asarray(R)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {R.shape}")
    if not np.all(np.isfinite(R)):
        raise ValueError("matrix contains non-finite entries")
    if not np.array_equal(R, R.conj().T):
        # Compared at unit scale: Frobenius norms of R itself overflow or
        # underflow at extreme scales and would silently pass any matrix.
        scale = np.max(np.abs(R))
        unit = R / scale
        if np.linalg.norm(unit - unit.conj().T) > HERMITIAN_RTOL * np.linalg.norm(unit):
            raise ValueError("matrix is not Hermitian within tolerance")
        R = 0.5 * (R + R.conj().T)
    _evd_calls += 1
    w, V = np.linalg.eigh(R)
    # LAPACK returns ascending eigenvalues; flip to descending.
    w, V = w[::-1], V[:, ::-1]
    if w.size and w[-1] < 0:
        tol = PSD_CLAMP_RTOL * max(w[0], 0.0)
        w[(w < 0) & (w >= -tol)] = 0.0
        if w[-1] < 0:
            raise ValueError("negative eigenvalue: matrix is not positive semidefinite")
    return w, V
