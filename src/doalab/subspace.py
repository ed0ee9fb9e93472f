"""Sample covariance, its signal/noise split, and spectral peak picking.

:func:`partition` is the one eigendecomposition behind every estimator in
:mod:`doalab.methods`; its :class:`SubspaceDecomposition` holds each operand
a method can score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from doalab.linalg import HermitianEvd, covariance_sqrt, hermitian_evd, require_psd


@dataclass(frozen=True)
class SubspaceDecomposition:
    """Signal/noise split of a sample covariance.

    Attributes:
        S: M x K matrix of the K dominant eigenvectors.
        G: M x (M-K) matrix of the remaining eigenvectors.
        lambda_s: The K largest eigenvalues, descending.
        lambda_n: The M-K smallest eigenvalues, descending.
    """

    S: np.ndarray
    G: np.ndarray
    lambda_s: np.ndarray
    lambda_n: np.ndarray

    @property
    def M(self) -> int:
        return self.S.shape[0]

    @property
    def K(self) -> int:
        return self.S.shape[1]

    def weighted_signal(self) -> np.ndarray:
        """Signal eigenvectors scaled columnwise by sqrt(lambda_s)."""
        return self.S * np.sqrt(self.lambda_s)[None, :]

    def weighted_noise(self) -> np.ndarray:
        """Noise eigenvectors scaled columnwise by sqrt(lambda_n)."""
        return self.G * np.sqrt(self.lambda_n)[None, :]

    @property
    def sqrt_R(self) -> np.ndarray:
        """Canonical covariance square root (:func:`covariance_sqrt`), built
        on each access: its first K columns are S scaled by sqrt(lambda_s)
        and the rest G scaled by sqrt(lambda_n), so subspace and square-root
        views agree exactly."""
        return covariance_sqrt(
            HermitianEvd(
                eigenvalues=np.concatenate((self.lambda_s, self.lambda_n)),
                eigenvectors=np.concatenate((self.S, self.G), axis=1),
            )
        )


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
    """Eigendecompose R and split eigenpairs into signal and noise parts.

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
    evd = hermitian_evd(R)
    require_psd(evd)
    return SubspaceDecomposition(
        S=evd.eigenvectors[:, :K],
        G=evd.eigenvectors[:, K:],
        lambda_s=evd.eigenvalues[:K],
        lambda_n=evd.eigenvalues[K:],
    )


def select_peak_indices(values: np.ndarray, K: int) -> np.ndarray:
    """Indices of the K largest strict local maxima of a grid function.

    A point qualifies when it beats both neighbors (endpoints compare
    against their single neighbor; the grid is not treated as circular).
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
        peak[0] = v[0] > v[1]
        peak[-1] = v[-1] > v[-2]
        if n > 2:
            peak[1:-1] = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
    peaks = np.flatnonzero(peak)
    chosen = peaks[np.argsort(-v[peaks], kind="stable")][:K]
    if chosen.size < K:
        rest = np.flatnonzero(~peak)
        fill = rest[np.argsort(-v[rest], kind="stable")][: K - chosen.size]
        chosen = np.concatenate([chosen, fill])
    return chosen[np.lexsort((chosen, -v[chosen]))]
