"""Closed registry of benchmarkable estimator ids.

Every method consumes the same sample covariance and search grid and returns
normalized-angle estimates, so the harness can time and score them
interchangeably.  Each estimate call is self-contained: whatever
decomposition or square root a method needs is computed inside the call and
therefore inside its timing window.
"""

from __future__ import annotations

import numpy as np

from doalab.fastgrid import DoaGrid
from doalab.gimusic import GIMUSIC_METHODS, gimusic_estimate
from doalab.greedy import GREEDY_METHODS, greedy_estimate
from doalab.linalg import covariance_sqrt, hermitian_evd
from doalab.subspace import MUSIC_VARIANTS, music_estimate

METHOD_IDS = MUSIC_VARIANTS + GREEDY_METHODS + GIMUSIC_METHODS


def estimate_method(
    method: str,
    R: np.ndarray,
    K: int,
    grid: DoaGrid,
    evaluator: str = "fft",
) -> np.ndarray:
    """Run one estimator on a sample covariance.

    Args:
        method: One of METHOD_IDS.
        R: M x M sample covariance.
        K: Number of angles to estimate; 0 returns an empty array (a method
            cannot run without a model order).
        grid: Search grid.
        evaluator: "fft" or "direct".

    Returns:
        Estimated normalized angles (selection order for greedy methods,
        descending peak value for spectral ones).
    """
    if method not in METHOD_IDS:
        raise ValueError(f"unknown method id: {method!r}")
    if K == 0:
        return np.empty(0, dtype=float)
    if method in MUSIC_VARIANTS:
        return music_estimate(R, K, grid, variant=method, evaluator=evaluator)
    if method in GREEDY_METHODS:
        sqrt_R = covariance_sqrt(hermitian_evd(R))
        return greedy_estimate(sqrt_R, K, grid, method=method, evaluator=evaluator)
    return gimusic_estimate(R, K, grid, method=method, evaluator=evaluator)
