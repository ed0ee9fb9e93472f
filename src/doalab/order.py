"""Model-order (target-count) selection.

Two routes: the classic eigenvalue-ratio AIC over the covariance spectrum,
and a hybrid scheme that trusts the eigenvalue estimate as a floor, then
keeps extending a greedy OLS-family estimate while a penalized residual
criterion keeps improving.  The stopping rule is pluggable so an alternative
criterion is a one-line swap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from doalab.fastgrid import DoaGrid
from doalab.gimusic import GIMUSIC_VARIANTS, variant_operand
from doalab.greedy import greedy_step, initial_state
from doalab.subspace import SubspaceDecomposition

# Geometric-mean zero floor: keeps log of exact-zero eigenvalues finite.
_EIG_FLOOR = 1e-300
# Residual-energy floor inside the hybrid criterion's log.
_EPS_FLOOR = 1e-12


@dataclass(frozen=True)
class OrderEstimate:
    """A target-count estimate with its criterion trace.

    Attributes:
        k_hat: Selected order.
        criterion_curve: Criterion value per candidate order 0..M-1 (NaN for
            orders the hybrid search never visited).
        criterion_id: "rank-aic" or "hybrid".
    """

    k_hat: int
    criterion_curve: np.ndarray
    criterion_id: str


def aic_rank(eigenvalues: np.ndarray, snapshots: int) -> OrderEstimate:
    """Eigenvalue-ratio AIC order estimate.

    For each candidate order k, compares the geometric and arithmetic means
    of the M-k smallest eigenvalues (equal means = perfectly flat noise
    floor) against a 2k(2M-k) parameter-count penalty:

        AIC(k) = -2 L (M-k) ln(g_k / a_k) + 2 k (2M - k)

    Zeros are floored at 1e-300 so rank-deficient inputs stay finite; the
    argmin ties break toward the smaller order.

    Args:
        eigenvalues: Descending non-negative covariance eigenvalues.
        snapshots: Snapshot count L the covariance was averaged over.

    Raises:
        ValueError: On negative eigenvalues, fewer than 2 of them, or a
            non-positive snapshot count.
    """
    w = np.asarray(eigenvalues, dtype=float)
    M = w.size
    if M < 2:
        raise ValueError("need at least 2 eigenvalues")
    if np.any(w < 0):
        raise ValueError("eigenvalues must be non-negative")
    if snapshots < 1:
        raise ValueError("snapshots must be >= 1")
    floored = np.maximum(w, _EIG_FLOOR)
    curve = np.empty(M)
    for k in range(M):
        tail = floored[k:]
        log_ratio = float(np.mean(np.log(tail)) - math.log(np.mean(tail)))
        curve[k] = -2.0 * snapshots * (M - k) * log_ratio + 2.0 * k * (2 * M - k)
    return OrderEstimate(
        k_hat=int(np.argmin(curve)), criterion_curve=curve, criterion_id="rank-aic"
    )


def penalized_residual_criterion(k: int, eps_k: float, M: int, snapshots: int) -> float:
    """Default hybrid stopping criterion.

    A log-residual-energy data term plus a parameter-count penalty:
    ``2 L M ln(eps_k) + 2 k (2M - k + 1)``.  The data term is non-increasing
    in k (projections nest), so stopping is driven by the penalty.
    """
    return 2.0 * snapshots * M * math.log(eps_k) + 2.0 * k * (2 * M - k + 1)


def hybrid_order(
    decomposition: SubspaceDecomposition | None,
    sqrt_R: np.ndarray,
    grid: DoaGrid,
    max_k: int,
    base: OrderEstimate,
    ols_variant: str = "ols",
    evaluator: str = "fft",
    snapshots: int | None = None,
    criterion: Callable[[int, float, int, int], float] = penalized_residual_criterion,
) -> OrderEstimate:
    """Extend an eigenvalue-based order estimate with greedy refits.

    Runs an OLS-family greedy estimator.  The first ``base.k_hat`` angles
    are added unconditionally (the eigenvalue estimate is trusted as a
    floor); each further angle is kept only while the stopping criterion
    decreases.  The result therefore never falls below ``base.k_hat``.

    Args:
        decomposition: Subspace decomposition; required for the
            iterative-MUSIC variants, ignored for plain "ols".
        sqrt_R: Covariance square root (drives plain OLS and the residual
            energy computation).
        grid: Search grid.
        max_k: Largest order to consider; base.k_hat <= max_k < M.
        base: The eigenvalue-based OrderEstimate to extend.
        ols_variant: "ols", "ols-imusic-signal", "ols-imusic-noise", or
            "ols-iwmusic".
        evaluator: "fft" or "direct".
        snapshots: Snapshot count for the criterion (required).
        criterion: Stopping rule mapping (k, eps_k, M, snapshots) to a
            score; lower is better.

    Returns:
        OrderEstimate with criterion_id "hybrid"; curve entries are NaN at
        orders the search never evaluated.
    """
    M = sqrt_R.shape[0]
    if snapshots is None:
        raise ValueError("snapshots is required")
    if not base.k_hat <= max_k < M:
        raise ValueError(f"need base.k_hat <= max_k < M, got {base.k_hat}, {max_k}, {M}")

    trace_R = float(np.sum(sqrt_R.real**2 + sqrt_R.imag**2))

    if ols_variant == "ols":
        X = sqrt_R
    elif ols_variant in GIMUSIC_VARIANTS and ols_variant.startswith("ols"):
        if decomposition is None:
            raise ValueError(f"variant {ols_variant!r} needs a decomposition")
        X = variant_operand(decomposition, ols_variant)
    else:
        raise ValueError(f"not an OLS-family variant: {ols_variant!r}")

    def criterion_at(k, state):
        res = state.residual(sqrt_R)
        eps = max(float(np.sum(res.real**2 + res.imag**2)) / trace_R, _EPS_FLOOR)
        return criterion(k, eps, M, snapshots)

    state = initial_state(M, grid.phase_factor)
    curve = np.full(M, np.nan)
    for _ in range(base.k_hat):
        state = greedy_step(state, X, grid, ols_variant, evaluator)
    k = base.k_hat
    curve[k] = criterion_at(k, state)
    while k < max_k:
        candidate = greedy_step(state, X, grid, ols_variant, evaluator)
        curve[k + 1] = criterion_at(k + 1, candidate)
        if not curve[k + 1] < curve[k]:
            break
        state, k = candidate, k + 1
    return OrderEstimate(k_hat=k, criterion_curve=curve, criterion_id="hybrid")
