"""Greedy iterative MUSIC: subspace-residual greedy estimators.

One eigendecomposition up front, then the greedy engine of
:mod:`doalab.greedy` runs on the ORIGINAL signal (or noise) eigenvectors:
each iteration projects them onto the complement of the selected steering
span and scores candidates with a MUSIC-style objective on that residual
subspace.  The square-root covariance factors exactly into the scaled signal
and noise subspaces, which gives three useful identities:

* the OMP objective equals the sum of the weighted signal and noise residual
  objectives pointwise (so dropping the noise term bounds the error by the
  largest noise eigenvalue),
* the signal-form and noise-form OLS objectives sum to the projected
  steering norm, hence select identical candidates,
* at k = 0 the unweighted objective IS the signal-form MUSIC pseudospectrum.

Compared to plain OMP/OLS this swaps the M-column square-root operand for a
K-column subspace operand — fewer transforms per iteration and no
per-iteration eigendecomposition.
"""

from __future__ import annotations

import numpy as np

from doalab.fastgrid import DoaGrid
from doalab.greedy import greedy_step, initial_state
from doalab.linalg import hermitian_evd
from doalab.subspace import SubspaceDecomposition, partition

GIMUSIC_METHODS = ("omp-imusic", "ols-imusic", "omp-iwmusic", "ols-iwmusic")
GIMUSIC_VARIANTS = (
    "omp-imusic",
    "ols-imusic-signal",
    "ols-imusic-noise",
    "omp-iwmusic",
    "ols-iwmusic",
)


def variant_operand(dec: SubspaceDecomposition, variant: str) -> np.ndarray:
    """The operand whose residual a variant scores.

    ``omp-imusic`` scores ``||residual(S)^H a||^2`` and ``ols-imusic-signal``
    divides that by ``||Pc a||^2``; ``ols-imusic-noise`` scores
    ``1 - ||residual(G)^H a||^2 / ||Pc a||^2`` (same argmax, complementary
    form); the two weighted variants use S scaled columnwise by the square
    roots of the signal eigenvalues.
    """
    if variant in ("omp-imusic", "ols-imusic-signal"):
        return dec.S
    if variant in ("omp-iwmusic", "ols-iwmusic"):
        return dec.weighted_signal()
    if variant == "ols-imusic-noise":
        return dec.G
    raise ValueError(f"unknown objective variant: {variant!r}")


def resolve_variant(method: str, K: int, M: int) -> str:
    """Map a method id to a concrete objective variant.

    ``ols-imusic`` picks the cheaper of its two equivalent forms: signal
    when K <= M-K, noise otherwise.  Other ids map to themselves.
    """
    if method == "ols-imusic":
        return "ols-imusic-signal" if K <= M - K else "ols-imusic-noise"
    if method in GIMUSIC_VARIANTS:
        return method
    raise ValueError(f"unknown greedy iterative-MUSIC method: {method!r}")


def gimusic_estimate(
    R: np.ndarray,
    K: int,
    grid: DoaGrid,
    method: str = "ols-imusic",
    evaluator: str = "fft",
    emulate_evd_per_iter: bool = False,
) -> np.ndarray:
    """Estimate K angles with a single up-front eigendecomposition.

    Args:
        R: M x M sample covariance.
        K: Number of angles, 1 <= K < M.
        grid: Search grid.
        method: A method id from GIMUSIC_METHODS or a concrete variant from
            GIMUSIC_VARIANTS.
        evaluator: "fft" or "direct".
        emulate_evd_per_iter: Benchmark mode reproducing the cost profile of
            iterative-MUSIC schemes that re-decompose the residual
            covariance every iteration: each iteration past the first runs
            one extra eigendecomposition whose result is discarded, so
            selections (and all metrics) are unchanged while the
            eigendecomposition count becomes K instead of 1.

    Returns:
        K grid angles in selection order.
    """
    M = R.shape[0]
    if not 1 <= K < M:
        raise ValueError(f"K must satisfy 1 <= K < M, got K={K}, M={M}")
    variant = resolve_variant(method, K, M)
    X = variant_operand(partition(R, K), variant)  # the one and only EVD
    state = initial_state(M, grid.phase_factor)
    for it in range(K):
        if emulate_evd_per_iter and it > 0:
            residual_cov = state.Pc @ R @ state.Pc
            hermitian_evd(0.5 * (residual_cov + residual_cov.conj().T))
        state = greedy_step(state, X, grid, variant, evaluator)
    return np.array(state.selected)
