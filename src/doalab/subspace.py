"""Sample covariance, signal/noise subspaces, and MUSIC-family estimators.

Four pseudospectrum variants share one machinery: the classic noise-form
MUSIC ``1/||G^H a||^2``, its signal-form twin ``||S^H a||^2`` (same peaks,
cheaper when K < M-K), and the eigenvalue-weighted versions of both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from doalab.fastgrid import DoaGrid, Pseudospectrum, objective_values
from doalab.linalg import covariance_sqrt, hermitian_evd

MUSIC_VARIANTS = ("music-signal", "music-noise", "wmusic-signal", "wmusic-noise")


@dataclass(frozen=True)
class SubspaceDecomposition:
    """Signal/noise split of a sample covariance.

    Attributes:
        S: M x K matrix of the K dominant eigenvectors.
        G: M x (M-K) matrix of the remaining eigenvectors.
        lambda_s: The K largest eigenvalues, descending.
        lambda_n: The M-K smallest eigenvalues, descending.
        sqrt_R: Canonical covariance square root; its first K columns are
            S scaled by sqrt(lambda_s) and the rest G scaled by
            sqrt(lambda_n), so subspace and square-root views agree exactly.
    """

    S: np.ndarray
    G: np.ndarray
    lambda_s: np.ndarray
    lambda_n: np.ndarray
    sqrt_R: np.ndarray

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
        ValueError: If K is out of range.
    """
    M = R.shape[0]
    if not 1 <= K < M:
        raise ValueError(f"K must satisfy 1 <= K < M, got K={K}, M={M}")
    evd = hermitian_evd(R)
    return SubspaceDecomposition(
        S=evd.eigenvectors[:, :K],
        G=evd.eigenvectors[:, K:],
        lambda_s=evd.eigenvalues[:K],
        lambda_n=evd.eigenvalues[K:],
        sqrt_R=covariance_sqrt(evd),
    )


def pseudospectrum(
    dec: SubspaceDecomposition,
    grid: DoaGrid,
    variant: str = "music-signal",
    evaluator: str = "fft",
) -> Pseudospectrum:
    """Evaluate one MUSIC-family pseudospectrum over the grid.

    Signal forms score ``||S^H a(u)||^2`` (weighted: S scaled by
    sqrt(lambda_s)); noise forms score the reciprocal of the same norm taken
    against G (weighted: G scaled by sqrt(lambda_n)), divided by the
    operand's largest squared column norm, with denominators below 1e-15*M
    saturated to 1e15 so exact noiseless nulls keep argmax semantics instead
    of overflowing.
    """
    if variant not in MUSIC_VARIANTS:
        raise ValueError(f"unknown pseudospectrum variant: {variant!r}")
    operand = {
        "music-signal": lambda: dec.S,
        "music-noise": lambda: dec.G,
        "wmusic-signal": dec.weighted_signal,
        "wmusic-noise": dec.weighted_noise,
    }[variant]()
    values = objective_values(operand, grid, variant, evaluator)
    return Pseudospectrum(values=values, grid=grid)


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


def select_peaks(ps: Pseudospectrum, K: int) -> np.ndarray:
    """Grid angles of the K largest pseudospectrum peaks."""
    return ps.grid.angles[select_peak_indices(ps.values, K)]


def default_music_variant(K: int, M: int, weighted: bool = False) -> str:
    """Cheaper-subspace default: signal form when K <= M-K, else noise."""
    family = "wmusic" if weighted else "music"
    return f"{family}-signal" if K <= M - K else f"{family}-noise"


def music_estimate(
    R: np.ndarray,
    K: int,
    grid: DoaGrid,
    variant: str = "auto",
    evaluator: str = "fft",
) -> np.ndarray:
    """MUSIC/WMUSIC point estimates of K normalized angles.

    Args:
        R: M x M sample covariance.
        K: Number of angles to report (also the signal subspace dimension).
        grid: Search grid.
        variant: Pseudospectrum variant, or "auto" to pick the cheaper of
            the two unweighted forms.
        evaluator: "fft" or "direct".

    Returns:
        K grid angles ordered by descending peak value.
    """
    if variant == "auto":
        variant = default_music_variant(K, R.shape[0])
    dec = partition(R, K)
    ps = pseudospectrum(dec, grid, variant, evaluator)
    return select_peaks(ps, K)
