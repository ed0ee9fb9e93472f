"""Model-order (target-count) selection.

Two routes: the classic eigenvalue-ratio AIC over the covariance spectrum,
and a hybrid scheme that trusts the eigenvalue estimate as a floor, then
keeps extending a greedy OLS estimate while a penalized residual criterion
keeps improving.  The stopping rule is pluggable so an alternative
criterion is a one-line swap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from doalab.fastgrid import DoaGrid
from doalab.greedy import greedy_step, initial_state

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
    in k (projections nest) and grows with L, the penalty does not: the
    step from k to k+1 lowers the score unless it shrinks the residual
    energy by a factor under ``exp(2 (M - k) / (L M))``, 0.1% at L = 1024,
    M = 16, k = 8.  A pick that takes one of the M-k noise dimensions out of
    a noise-only residual removes about ``1/(M - k)`` of it, so at such
    snapshot counts the hybrid search runs on to ``max_k``.
    """
    return 2.0 * snapshots * M * math.log(eps_k) + 2.0 * k * (2 * M - k + 1)


def hybrid_order(
    sqrt_R: np.ndarray,
    grid: DoaGrid,
    max_k: int,
    base: OrderEstimate,
    snapshots: int,
    evaluator: str = "fft",
    criterion: Callable[[int, float, int, int], float] = penalized_residual_criterion,
) -> OrderEstimate:
    """Extend an eigenvalue-based order estimate with greedy OLS refits.

    Runs the greedy engine in the ratio form on the covariance square root
    (OLS).  The first ``base.k_hat`` angles are added unconditionally (the
    eigenvalue estimate is trusted as a floor); each further angle is kept
    only while the stopping criterion decreases.  The result therefore never
    falls below ``base.k_hat``.

    Args:
        sqrt_R: Covariance square root: the OLS operand and the source of
            the residual energy the criterion scores.
        grid: Search grid.
        max_k: Largest order to consider; base.k_hat <= max_k < M.
        base: The eigenvalue-based OrderEstimate to extend.
        snapshots: Snapshot count for the criterion.
        evaluator: "fft" or "direct".
        criterion: Stopping rule mapping (k, eps_k, M, snapshots) to a
            score; lower is better.

    Returns:
        OrderEstimate with criterion_id "hybrid"; curve entries are NaN at
        orders the search never evaluated.
    """
    M = sqrt_R.shape[0]
    if not base.k_hat <= max_k < M:
        raise ValueError(f"need base.k_hat <= max_k < M, got {base.k_hat}, {max_k}, {M}")

    trace_R = float(np.sum(sqrt_R.real**2 + sqrt_R.imag**2))
    state = initial_state(sqrt_R, grid, evaluator)

    def criterion_at(k):
        res = state.res
        eps = max(float(np.sum(res.real**2 + res.imag**2)) / trace_R, _EPS_FLOOR)
        return criterion(k, eps, M, snapshots)

    curve = np.full(M, np.nan)
    for _ in range(base.k_hat):
        greedy_step(state, "ratio")
    k = base.k_hat
    curve[k] = criterion_at(k)
    while k < max_k:
        greedy_step(state, "ratio")
        curve[k + 1] = criterion_at(k + 1)
        if not curve[k + 1] < curve[k]:
            break
        k += 1
    return OrderEstimate(k_hat=k, criterion_curve=curve, criterion_id="hybrid")
