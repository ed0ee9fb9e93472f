"""Model-order (target-count) selection.

Every order a trial uses is decided here, by :func:`model_orders`: the
configured count, the classic eigenvalue-ratio AIC over the covariance
spectrum, or a hybrid scheme that trusts the AIC order as a floor, then
keeps extending a greedy OLS estimate while a penalized residual criterion
keeps improving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from doalab.fastgrid import DoaGrid
from doalab.greedy import greedy_step, initial_state
from doalab.linalg import partition

ORDER_CRITERIA = ("true-k", "rank-aic", "hybrid")

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
    """

    k_hat: int
    criterion_curve: np.ndarray


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
    return OrderEstimate(k_hat=int(np.argmin(curve)), criterion_curve=curve)


def penalized_residual_criterion(k: int, eps_k: float, M: int, snapshots: int) -> float:
    """The hybrid stopping criterion.

    A log-residual-energy data term plus a parameter-count penalty:
    ``2 L M ln(eps_k) + 2 k (2M - k + 1)``.  The data term is non-increasing
    in k (projections nest) and grows with L, the penalty does not: the
    step from k to k+1 lowers the score unless it shrinks the residual
    energy by a factor under ``exp(2 (M - k) / (L M))``, 0.1% at L = 1024,
    M = 16, k = 8.  A pick that takes one of the M-k noise dimensions out of
    a noise-only residual removes about ``1/(M - k)`` of it, so at such
    snapshot counts the hybrid search runs on to M-1.
    """
    return 2.0 * snapshots * M * math.log(eps_k) + 2.0 * k * (2 * M - k + 1)


def hybrid_order(
    sqrt_R: np.ndarray,
    grid: DoaGrid,
    k_floor: int,
    snapshots: int,
    evaluator: str = "fft",
) -> OrderEstimate:
    """Extend an eigenvalue-based order with greedy OLS refits.

    Runs the greedy engine in the ratio form on the covariance square root
    (OLS).  The first ``k_floor`` angles are added unconditionally (the
    eigenvalue estimate is trusted as a floor); each further angle, up to
    M-1, is kept only while :func:`penalized_residual_criterion` decreases.
    The result therefore lies in ``[k_floor, M-1]``.  A zero covariance
    takes the residual ratio at its floor, so the search stops at k_floor.

    Args:
        sqrt_R: M x M covariance square root: the OLS operand and the
            source of the residual energy the criterion scores.
        grid: Search grid.
        k_floor: Order to start from; ValueError unless 0 <= k_floor < M.
        snapshots: Snapshot count for the criterion.
        evaluator: "fft" or "direct".
    """
    M = sqrt_R.shape[0]
    if not 0 <= k_floor < M:
        raise ValueError(f"need 0 <= k_floor < M, got k_floor={k_floor}, M={M}")

    trace_R = float(np.sum(sqrt_R.real**2 + sqrt_R.imag**2))
    state = initial_state(sqrt_R, grid, evaluator)

    def criterion_at(k):
        res = state.res
        energy = float(np.sum(res.real**2 + res.imag**2))
        eps = max(energy / trace_R if trace_R else 0.0, _EPS_FLOOR)
        return penalized_residual_criterion(k, eps, M, snapshots)

    curve = np.full(M, np.nan)
    for _ in range(k_floor):
        greedy_step(state, "ratio")
    k = k_floor
    curve[k] = criterion_at(k)
    while k < M - 1:
        greedy_step(state, "ratio")
        curve[k + 1] = criterion_at(k + 1)
        if not curve[k + 1] < curve[k]:
            break
        k += 1
    return OrderEstimate(k_hat=k, criterion_curve=curve)


def model_orders(R, criteria, K: int, snapshots: int, grid: DoaGrid, evaluator: str) -> dict:
    """The target count of each order criterion in ``criteria``, by name.

    "true-k" is the configured count K; "rank-aic" is :func:`aic_rank` on
    the eigenvalues of R, averaged over ``snapshots``; "hybrid" is
    :func:`hybrid_order` on R's square root over ``grid``, floored at the
    rank-aic order.  R is eigendecomposed once, by
    :func:`doalab.linalg.partition` with K = 0, and only for rank-aic or
    hybrid.
    """
    orders = {}
    if "true-k" in criteria:
        orders["true-k"] = K
    if "rank-aic" in criteria or "hybrid" in criteria:
        dec = partition(R, 0)
        orders["rank-aic"] = aic_rank(dec.eigenvalues, snapshots).k_hat
        if "hybrid" in criteria:
            hyb = hybrid_order(dec.sqrt_R, grid, orders["rank-aic"], snapshots, evaluator)
            orders["hybrid"] = hyb.k_hat
    return orders
