"""Sample covariance, its signal/noise split, and spectral peak picking.

:func:`partition` is the one eigendecomposition behind every estimator in
:mod:`doalab.methods`.  Its :class:`SubspaceDecomposition` keeps the
eigenpairs once; each operand a method can score is a view or a column
scaling of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from doalab.linalg import hermitian_evd


@dataclass(frozen=True)
class SubspaceDecomposition:
    """Eigenpairs of a PSD covariance, split after the K dominant ones.

    Attributes:
        eigenvalues: The M eigenvalues, descending and nonnegative.
        eigenvectors: M x M unitary matrix of the matching eigenvectors.
        K: Signal subspace dimension.

    S, G, lambda_s and lambda_n are views of the eigenpairs; the scaled
    operands are built on each access.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    K: int

    @property
    def M(self) -> int:
        return self.eigenvectors.shape[0]

    @property
    def S(self) -> np.ndarray:
        """M x K matrix of the K dominant eigenvectors."""
        return self.eigenvectors[:, : self.K]

    @property
    def G(self) -> np.ndarray:
        """M x (M-K) matrix of the remaining eigenvectors."""
        return self.eigenvectors[:, self.K :]

    @property
    def lambda_s(self) -> np.ndarray:
        """The K largest eigenvalues, descending."""
        return self.eigenvalues[: self.K]

    @property
    def lambda_n(self) -> np.ndarray:
        """The M-K smallest eigenvalues, descending."""
        return self.eigenvalues[self.K :]

    @property
    def weighted_signal(self) -> np.ndarray:
        """Signal eigenvectors scaled columnwise by sqrt(lambda_s)."""
        return self.S * np.sqrt(self.lambda_s)[None, :]

    @property
    def weighted_noise(self) -> np.ndarray:
        """Noise eigenvectors scaled columnwise by sqrt(lambda_n)."""
        return self.G * np.sqrt(self.lambda_n)[None, :]

    @property
    def sqrt_R(self) -> np.ndarray:
        """Canonical covariance square root ``V diag(sqrt(eigenvalues))``:
        its first K columns are weighted_signal and the rest weighted_noise,
        exactly."""
        return self.eigenvectors * np.sqrt(self.eigenvalues)[None, :]


def sample_covariance(Y: np.ndarray) -> np.ndarray:
    """Sample covariance ``Y @ Y^H / L`` over the L snapshot columns.

    Symmetrized to machine precision so downstream Hermitian routines never
    see accumulated asymmetry.
    """
    Y = np.asarray(Y)
    if Y.ndim != 2 or Y.shape[1] < 1:
        raise ValueError("expected a matrix with at least one snapshot column")
    R = (Y @ Y.conj().T) / Y.shape[1]
    return 0.5 * (R + R.conj().T)


def partition(R: np.ndarray, K: int) -> SubspaceDecomposition:
    """Eigendecompose R (:func:`doalab.linalg.hermitian_evd`) and split its
    eigenpairs after the K dominant ones.

    Args:
        R: M x M Hermitian PSD sample covariance.
        K: Signal subspace dimension, 1 <= K < M.

    Raises:
        ValueError: If K is out of range, or R is not Hermitian or not
            positive semidefinite.
    """
    M = R.shape[0]
    if not 1 <= K < M:
        raise ValueError(f"K must satisfy 1 <= K < M, got K={K}, M={M}")
    return SubspaceDecomposition(*hermitian_evd(R), K)


def select_peak_indices(values: np.ndarray, K: int) -> np.ndarray:
    """Indices of the K largest strict local maxima of a grid function.

    A point qualifies when it beats both neighbors.  The half-wavelength
    u-grid is a circle, a(-1) = a(+1), so the first and last points are
    each other's neighbors.
    When fewer than K strict maxima exist, the largest remaining non-peak
    values fill the quota.  The result is ordered by descending value with
    ties broken toward the lower grid index.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    if K < 1:
        return np.empty(0, dtype=int)
    peak = np.zeros(n, dtype=bool)
    if n == 1:
        peak[0] = True
    else:
        peak[0] = v[0] > v[1] and v[0] > v[-1]
        peak[-1] = v[-1] > v[-2] and v[-1] > v[0]
        if n > 2:
            peak[1:-1] = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
    peaks = np.flatnonzero(peak)
    chosen = peaks[np.argsort(-v[peaks], kind="stable")][:K]
    if chosen.size < K:
        rest = np.flatnonzero(~peak)
        fill = rest[np.argsort(-v[rest], kind="stable")][: K - chosen.size]
        chosen = np.concatenate([chosen, fill])
    return chosen[np.lexsort((chosen, -v[chosen]))]
