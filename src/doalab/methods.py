"""The method table: every estimator id, the one path that runs them all,
and the peak picker the spectral rows report through.

Each estimator is one row of three choices:

* its operand, named by the attribute of the one eigendecomposition of the
  sample covariance (:func:`doalab.linalg.partition`) that holds it: the
  signal eigenvectors ``S``, the noise eigenvectors ``G``, either scaled by
  the square roots of its eigenvalues (``weighted_signal``,
  ``weighted_noise``), or the covariance square root ``sqrt_R``;
* its objective form: "norm" or "reciprocal" for a spectral row
  (:func:`doalab.fastgrid.objective_values`), "norm" or a ratio form for a
  greedy one (:func:`doalab.greedy.greedy_objective`);
* spectral or greedy: score the grid once and report the K largest peaks
  (:func:`select_peak_indices`), or run K iterations of the engine in
  :mod:`doalab.greedy`.  On the fft path a spectral estimate scores its
  operand's Gram with one quadratic-form FFT, whatever the operand's width;
  a greedy estimate transforms its operand onto the grid once, then one
  more column per selection.

The square root factors exactly into the scaled signal and noise subspaces,
so the greedy rows are one family: the OMP objective is the sum of the
weighted signal and noise residual objectives, and the signal and noise
ratio forms select identical candidates.  The iterative-MUSIC rows swap the
M-column square root for a narrower subspace operand, with no per-iteration
eigendecomposition.

The decomposition is computed inside each estimate call and therefore inside
its timing window.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from doalab.fastgrid import DoaGrid, Pseudospectrum, objective_values
from doalab.greedy import greedy_step, initial_state
from doalab.linalg import SubspaceDecomposition, partition


class Method(NamedTuple):
    """One row of the method table.

    Attributes:
        operand: The :class:`~doalab.linalg.SubspaceDecomposition`
            attribute the objective is scored on.
        form: Objective form: "norm", "reciprocal" (spectral only), or one of
            ``greedy.RATIO_FORMS`` (greedy only).
        greedy: Select one angle per iteration (True) or the K largest
            peaks of one spectrum (False).
    """

    operand: str
    form: str
    greedy: bool


# id -> (operand, objective form, greedy)
METHODS = {
    "music-signal": Method("S", "norm", False),
    "music-noise": Method("G", "reciprocal", False),
    "wmusic-signal": Method("weighted_signal", "norm", False),
    "wmusic-noise": Method("weighted_noise", "reciprocal", False),
    "omp": Method("sqrt_R", "norm", True),
    "ols": Method("sqrt_R", "ratio", True),
    "omp-imusic": Method("S", "norm", True),
    "ols-imusic": Method("S", "ratio", True),
    "omp-iwmusic": Method("weighted_signal", "norm", True),
    "ols-iwmusic": Method("weighted_signal", "ratio", True),
}
METHOD_IDS = tuple(METHODS)

# ols-imusic when K > M-K: ``1 - ||residual(G)^H a||^2 / ||Pc a||^2`` has the
# signal form's argmax (the two residual energies partition ||Pc a||^2) and
# the narrower operand.
_OLS_IMUSIC_NOISE = Method("G", "complement-ratio", True)


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


def pseudospectrum(
    dec: SubspaceDecomposition,
    grid: DoaGrid,
    variant: str = "music-signal",
    evaluator: str = "fft",
) -> Pseudospectrum:
    """Evaluate a spectral method's objective over the grid.

    Signal forms score ``||S^H a(u)||^2`` (weighted: S scaled by
    sqrt(lambda_s)); noise forms score the reciprocal of the same norm taken
    against G (weighted: G scaled by sqrt(lambda_n)), divided by the
    operand's largest squared column norm, with denominators below 1e-15*M
    saturated to 1e15 so exact noiseless nulls keep argmax semantics instead
    of overflowing.

    Raises:
        ValueError: If ``variant`` is not a spectral method id.
    """
    row = METHODS.get(variant)
    if row is None or row.greedy:
        raise ValueError(f"unknown pseudospectrum variant: {variant!r}")
    values = objective_values(getattr(dec, row.operand), grid, row.form, evaluator)
    return Pseudospectrum(values=values, grid=grid)


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
        K: Number of angles to estimate, K < M; 0 returns an empty array (a
            method cannot run without a model order).
        grid: Search grid.
        evaluator: "fft" or "direct".

    Returns:
        K distinct estimated normalized angles: ``grid.angles`` at the K
        picked grid indices (selection order for greedy methods, descending
        peak value for spectral ones).  Greedy iterations pass over the
        selected and degenerate candidates in every objective form (see
        :func:`doalab.greedy.greedy_step`), so a degenerate covariance still
        yields K distinct angles.  With R = 0 the weighted and square-root
        operands vanish, every score ties at zero and the lowest grid
        indices not yet selected are picked; the unweighted subspace rows
        (``music-*``, ``omp-imusic``, ``ols-imusic``) score an arbitrary
        orthonormal eigenbasis instead, so their K angles are unspecified.

    Raises:
        ValueError: On an unknown method id or K outside 0 <= K < M.
        numpy.linalg.LinAlgError: From a greedy method, if a selected
            grid point's steering column lies within rounding of the
            selected span (see :func:`doalab.greedy.greedy_update`).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method id: {method!r}")
    M = R.shape[0]
    row = _OLS_IMUSIC_NOISE if method == "ols-imusic" and K > M - K else METHODS[method]
    if K == 0:
        return np.empty(0, dtype=float)
    X = getattr(partition(R, K), row.operand)  # the one and only EVD
    if row.greedy:
        state = initial_state(X, grid, evaluator)
        for _ in range(K):
            greedy_step(state, row.form)
        idx = list(state.selected)
    else:
        idx = select_peak_indices(objective_values(X, grid, row.form, evaluator), K)
    return grid.angles[idx]
