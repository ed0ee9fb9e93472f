"""Estimate-to-truth association, detection scoring, and scene diagnostics.

Association solves the rectangular optimal-assignment problem on absolute
angle error.  Detection scoring classifies matched pairs inside the array's
main lobe (|du| < 2 pi / (phi M), 2/M at the half-wavelength phase factor
phi = pi, applied by hit_true_indices alone) as hits;
everything else an estimator reports counts as a false alarm.  The scene
diagnostics summarize how diagonal the steering and coefficient Gram
matrices are — proxies for angular separability and signal decorrelation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from doalab.scenario import GroundTruth, steering_matrix


@dataclass(frozen=True)
class AssociationResult:
    """Optimal pairing between true and estimated angles.

    Attributes:
        pairs: Tuples (true_index, est_index, abs_error), one per matched
            pair; total error is minimal over all pairings.
        unmatched_true: True-target indices left unpaired.
        unmatched_est: Estimate indices left unpaired.
    """

    pairs: tuple
    unmatched_true: tuple
    unmatched_est: tuple


@dataclass(frozen=True)
class DetectionMetrics:
    """Hit/false-alarm tallies for one trial and method.

    ``youden_j = hit_rate - fa_rate``; 1 means every target found with no
    spurious detections.
    """

    hits: int
    false_alarms: int
    hit_rate: float
    fa_rate: float
    youden_j: float


@dataclass(frozen=True)
class DiagnosticMetrics:
    """Diagonality scores of the steering and coefficient Gram matrices."""

    t_metric: float
    s_metric: float


def associate(true_u: Sequence[float], est_u: Sequence[float]) -> AssociationResult:
    """Minimum-total-|du| assignment between true and estimated angles.

    Either side may be empty.  The assignment is solved exactly on the
    rectangular cost matrix, so the matched count equals the smaller side's
    size and the summed error is provably minimal.
    """
    true_u = np.asarray(true_u, dtype=float).reshape(-1)
    est_u = np.asarray(est_u, dtype=float).reshape(-1)
    cost = np.abs(true_u[:, None] - est_u[None, :])
    rows, cols = linear_sum_assignment(cost)
    pairs = tuple(
        (int(r), int(c), float(cost[r, c])) for r, c in zip(rows, cols)
    )
    return AssociationResult(
        pairs=pairs,
        unmatched_true=tuple(sorted(set(range(true_u.size)) - set(rows.tolist()))),
        unmatched_est=tuple(sorted(set(range(est_u.size)) - set(cols.tolist()))),
    )


def detection_metrics(
    assoc: AssociationResult, M: int, phase_factor: float = math.pi
) -> DetectionMetrics:
    """Score an association as hits and false alarms.

    The hits are the pairs :func:`hit_true_indices` counts for an M-element
    array with element phase factor ``phase_factor``; matched pairs
    outside the main lobe and unmatched estimates are false alarms.  The hit
    rate is normalized by the number of true angles, the false-alarm rate by
    the number of detections the method reported, so a perfect score
    requires zero spurious detections regardless of how many targets exist.

    Raises:
        ValueError: If the association has no true angles.
    """
    targets = len(assoc.pairs) + len(assoc.unmatched_true)
    if targets < 1:
        raise ValueError("association has no true angles")
    hits = len(hit_true_indices(assoc, M, phase_factor))
    detections = len(assoc.pairs) + len(assoc.unmatched_est)
    false_alarms = detections - hits
    hit_rate = hits / targets
    fa_rate = false_alarms / max(1, detections)
    return DetectionMetrics(
        hits=hits,
        false_alarms=false_alarms,
        hit_rate=hit_rate,
        fa_rate=fa_rate,
        youden_j=hit_rate - fa_rate,
    )


def hit_true_indices(
    assoc: AssociationResult, M: int, phase_factor: float = math.pi
) -> frozenset:
    """True-target indices whose matched error is inside the main lobe.

    The package's one hit rule: |du| < 2 pi / (phase_factor M), the
    first-null distance of an M-element array whose steering phase advances
    by ``phase_factor`` u per element; 2/M for the half-wavelength default.
    """
    halfwidth = 2.0 / M * (math.pi / phase_factor)
    return frozenset(t for t, _, d in assoc.pairs if d < halfwidth)


def rmse_common_hits(
    per_method_assocs: Mapping[str, AssociationResult],
    M: int,
    phase_factor: float = math.pi,
) -> dict:
    """Per-method RMSE restricted to targets every method hit.

    Hits follow :func:`hit_true_indices` with the same M and
    ``phase_factor``.  Comparing precision only on
    commonly-hit targets keeps the average from rewarding a method for
    missing its hardest targets.  When no target is hit by all methods the
    value is None for every method (callers track that as a coverage
    fraction).
    """
    if not per_method_assocs:
        raise ValueError("need at least one method")
    common = None
    for assoc in per_method_assocs.values():
        hits = hit_true_indices(assoc, M, phase_factor)
        common = hits if common is None else (common & hits)
    if not common:
        return {name: None for name in per_method_assocs}
    out = {}
    for name, assoc in per_method_assocs.items():
        errs = [d for t, _, d in assoc.pairs if t in common]
        out[name] = float(np.sqrt(np.mean(np.square(errs))))
    return out


def diagonality_score(A: np.ndarray) -> float:
    """How diagonal a square matrix is, from 0 (balanced) to 1 (diagonal).

    Each row contributes the ratio of its diagonal magnitude to its total
    magnitude; the mean ratio is affinely rescaled so the identity scores
    exactly 1 and the all-ones matrix exactly 0, then clamped to [0, 1].

    Raises:
        ValueError: On a non-square input or an all-zero row.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    K = A.shape[0]
    mags = np.abs(A)
    row_sums = mags.sum(axis=1)
    if np.any(row_sums == 0):
        raise ValueError("matrix has an all-zero row")
    if K == 1:
        return 1.0
    r = np.diag(mags) / row_sums
    score = (K * float(np.mean(r)) - 1.0) / (K - 1.0)
    return float(min(1.0, max(0.0, score)))


def diagnostics(
    truth: GroundTruth,
    coeffs: np.ndarray,
    M: int,
    D: int,
    Q: int,
    phase_factor: float = math.pi,
) -> DiagnosticMetrics:
    """Scene-difficulty diagnostics from normalized Gram matrices.

    The steering Gram ``A^H A / M`` measures angular separability; the
    coefficient Gram ``B B^H / (D Q)`` measures how decorrelated the
    per-target signal histories are.  Both are summarized by their
    diagonality score.  ``A`` steers the true angles with the array's
    ``phase_factor`` (default pi, a half-wavelength array).
    """
    A = steering_matrix(truth.doas, M, phase_factor)
    T = A.conj().T @ A / M
    S = coeffs @ coeffs.conj().T / (D * Q)
    return DiagnosticMetrics(
        t_metric=diagonality_score(T), s_metric=diagonality_score(S)
    )
