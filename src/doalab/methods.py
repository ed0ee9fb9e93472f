"""The method table: every estimator id, and the one path that runs them all.

Each estimator is one row of three choices:

* its operand, from the one eigendecomposition of the sample covariance
  (:func:`doalab.subspace.partition`): the signal eigenvectors S, the noise
  eigenvectors G, either scaled by the square roots of its eigenvalues, or
  the covariance square root;
* its objective form: "norm" or "reciprocal" for a spectral row
  (:func:`doalab.fastgrid.objective_values`), "norm" or a ratio form for a
  greedy one (:func:`doalab.fastgrid.apply_form`);
* spectral or greedy: score the grid once and report the K largest peaks, or
  run K iterations of the engine in :mod:`doalab.greedy`.  Either way the
  operand is transformed onto the grid once per estimate; a greedy estimate
  then transforms one more column per selection.

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

from operator import attrgetter, methodcaller
from typing import Callable, NamedTuple

import numpy as np

from doalab.fastgrid import DoaGrid, Pseudospectrum, objective_values
from doalab.greedy import greedy_step, initial_state
from doalab.subspace import SubspaceDecomposition, partition, select_peak_indices


class Method(NamedTuple):
    """One row of the method table.

    Attributes:
        operand: The decomposition's matrix the objective is scored on.
        form: Objective form: "norm", "reciprocal" (spectral only), or one of
            ``fastgrid.RATIO_FORMS`` (greedy only).
        greedy: Select one angle per iteration (True) or the K largest
            peaks of one spectrum (False).
    """

    operand: Callable[[SubspaceDecomposition], np.ndarray]
    form: str
    greedy: bool


_signal, _noise, _sqrt_R = attrgetter("S"), attrgetter("G"), attrgetter("sqrt_R")
_weighted_signal = methodcaller("weighted_signal")
_weighted_noise = methodcaller("weighted_noise")

# id -> (operand, objective form, greedy)
METHODS = {
    "music-signal": Method(_signal, "norm", False),
    "music-noise": Method(_noise, "reciprocal", False),
    "wmusic-signal": Method(_weighted_signal, "norm", False),
    "wmusic-noise": Method(_weighted_noise, "reciprocal", False),
    "omp": Method(_sqrt_R, "norm", True),
    "ols": Method(_sqrt_R, "ratio", True),
    "omp-imusic": Method(_signal, "norm", True),
    "ols-imusic": Method(_signal, "ratio", True),
    "omp-iwmusic": Method(_weighted_signal, "norm", True),
    "ols-iwmusic": Method(_weighted_signal, "ratio", True),
}
METHOD_IDS = tuple(METHODS)

# ols-imusic when K > M-K: ``1 - ||residual(G)^H a||^2 / ||Pc a||^2`` has the
# signal form's argmax (the two residual energies partition ||Pc a||^2) and
# the narrower operand.
_OLS_IMUSIC_NOISE = Method(_noise, "complement-ratio", True)


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
    values = objective_values(row.operand(dec), grid, row.form, evaluator)
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
        K distinct estimated normalized angles (selection order for greedy
        methods, descending peak value for spectral ones).  Greedy
        iterations pass over the selected and degenerate candidates in
        every objective form (see :func:`doalab.greedy.greedy_step`), so a
        degenerate covariance still yields K distinct angles: with R = 0
        every score ties at zero and the lowest grid angles not yet
        selected are picked.

    Raises:
        ValueError: On an unknown method id or K outside 0 <= K < M.
        numpy.linalg.LinAlgError: From a greedy method, if a selected
            angle's steering vector lies within rounding of the selected
            span (see :func:`doalab.greedy.greedy_update`).
    """
    if method not in METHODS:
        raise ValueError(f"unknown method id: {method!r}")
    M = R.shape[0]
    row = _OLS_IMUSIC_NOISE if method == "ols-imusic" and K > M - K else METHODS[method]
    if K == 0:
        return np.empty(0, dtype=float)
    X = row.operand(partition(R, K))  # the one and only EVD
    if not row.greedy:
        values = objective_values(X, grid, row.form, evaluator)
        return grid.angles[select_peak_indices(values, K)]
    state = initial_state(X, grid, evaluator)
    for _ in range(K):
        greedy_step(state, row.form)
    return np.array(state.selected)
