"""Estimate-to-truth association, detection scoring, and scene diagnostics.

Association solves the rectangular optimal-assignment problem on absolute
angle error with Crouse's shortest-augmenting-path method (D. F. Crouse,
"On implementing 2D rectangular assignment algorithms", IEEE TAES 52(4),
2016), ported step for step from scipy 1.17's ``linear_sum_assignment``:
it returns scipy's pairs in scipy's order, ties included.  The port lives
here because a trial's cost matrix has at most a few hundred entries, and
importing ``scipy.optimize`` for it would cost every process that scores
trials about 15 MB of memory and 0.2 s of start-up.

Detection scoring classifies matched pairs inside the half-wavelength
array's main lobe (|du| < 2/M, applied by hit_true_indices alone) as hits;
everything else an estimator reports counts as a false alarm.  The scene
diagnostics summarize how diagonal the steering and coefficient Gram
matrices are — proxies for angular separability and signal decorrelation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

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
    size and the summed error is provably minimal.  The solver is the
    module's port of scipy 1.17's ``linear_sum_assignment`` (Crouse 2016):
    among tied minimum-cost pairings it picks the one scipy picks, which
    depends on input order.

    Raises:
        ValueError: If an angle is NaN, or if an infinite angle cannot be
            left unmatched (scipy rejects the same cost matrices as
            invalid or infeasible).
    """
    true_u = np.asarray(true_u, dtype=float).reshape(-1)
    est_u = np.asarray(est_u, dtype=float).reshape(-1)
    cost = np.abs(true_u[:, None] - est_u[None, :])
    rows, cols = _linear_sum_assignment(cost)
    pairs = tuple((r, c, float(cost[r, c])) for r, c in zip(rows, cols))
    return AssociationResult(
        pairs=pairs,
        unmatched_true=tuple(sorted(set(range(true_u.size)) - set(rows))),
        unmatched_est=tuple(sorted(set(range(est_u.size)) - set(cols))),
    )


def _linear_sum_assignment(cost: np.ndarray) -> tuple[list, list]:
    """Minimum-cost rectangular assignment: scipy 1.17's solver, in Python.

    Returns (rows, cols) as lists of ints, the pairs scipy's
    ``linear_sum_assignment`` returns in the order it returns them.  Every
    rule that picks among tied paths is scipy's: a tall matrix is
    transposed and the result sorted by row; rows enter one at a time, each
    by a Dijkstra search over the remaining columns, which start in reverse
    order and lose the picked column by swap-removal; the lowest reduced
    cost wins, and an equal one wins when its column is free.  The reduced
    cost ``min_val + c - u[i] - v[j]`` is summed left to right as in
    scipy's C++; with no product in it, no fused multiply-add can round it
    differently there.

    Raises:
        ValueError: On a NaN or -inf cost, or when no assignment has a
            finite cost.
    """
    nr, nc = cost.shape
    if nr == 0 or nc == 0:
        return [], []
    transpose = nc < nr
    if transpose:
        cost = cost.T
        nr, nc = nc, nr
    if np.isnan(cost).any() or (cost == -math.inf).any():
        raise ValueError("matrix contains invalid numeric entries")
    c = cost.tolist()
    inf = math.inf
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur in range(nr):
        # Shortest augmenting path from row cur (Dijkstra on reduced costs).
        spc = [inf] * nc
        remaining = list(range(nc - 1, -1, -1))
        settled = []
        min_val = 0.0
        i = cur
        while True:
            ci, ui = c[i], u[i]
            index, lowest = -1, inf
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                s = spc[j]
                if r < s:
                    path[j] = i
                    spc[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest = s
                    index = it
            min_val = lowest
            if min_val == inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            remaining[index] = remaining[-1]
            del remaining[-1]
            if row4col[j] == -1:
                break
            settled.append(j)
            i = row4col[j]
        # j is the sink.  Dual update: the rows the search visited are cur
        # and the rows matched to its settled columns, so the column of
        # row row4col[k] is k.
        u[cur] += min_val
        v[j] -= min_val - spc[j]
        for k in settled:
            u[row4col[k]] += min_val - spc[k]
            v[k] -= min_val - spc[k]
        # Augment: flip the matching along the path back to row cur.
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        order = sorted(range(nr), key=col4row.__getitem__)
        return [col4row[k] for k in order], order
    return list(range(nr)), col4row


def detection_metrics(assoc: AssociationResult, M: int) -> DetectionMetrics:
    """Score an association as hits and false alarms.

    The hits are the pairs :func:`hit_true_indices` counts for an M-element
    array; matched pairs outside the main lobe and unmatched estimates are
    false alarms.  The hit rate is normalized by the number of true angles,
    the false-alarm rate by the number of detections the method reported, so
    a perfect score requires zero spurious detections regardless of how many
    targets exist.

    Raises:
        ValueError: If the association has no true angles.
    """
    targets = len(assoc.pairs) + len(assoc.unmatched_true)
    if targets < 1:
        raise ValueError("association has no true angles")
    hits = len(hit_true_indices(assoc, M))
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


def hit_true_indices(assoc: AssociationResult, M: int) -> frozenset:
    """True-target indices whose matched error is inside the main lobe.

    The package's one hit rule: |du| < 2/M, the first-null distance of an
    M-element half-wavelength array.
    """
    halfwidth = 2.0 / M
    return frozenset(t for t, _, d in assoc.pairs if d < halfwidth)


def rmse_common_hits(per_method_assocs: Mapping[str, AssociationResult], M: int) -> dict:
    """Per-method RMSE restricted to targets every method hit.

    Hits follow :func:`hit_true_indices` with the same M.  Comparing
    precision only on commonly-hit targets keeps the average from rewarding
    a method for missing its hardest targets.  When no target is hit by all
    methods the value is None for every method (callers track that as a
    coverage fraction).
    """
    if not per_method_assocs:
        raise ValueError("need at least one method")
    common = None
    for assoc in per_method_assocs.values():
        hits = hit_true_indices(assoc, M)
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


def diagnostics(truth: GroundTruth, gram: np.ndarray, M: int) -> DiagnosticMetrics:
    """Scene-difficulty diagnostics from normalized Gram matrices.

    The steering Gram ``A^H A / M`` measures angular separability; the K x K
    coefficient Gram ``gram = C C^H`` (see
    :func:`doalab.scenario.coefficient_gram`) measures how decorrelated the
    per-target signal histories are.  Both are summarized by their
    diagonality score, which does not depend on the Gram's scale.
    """
    A = steering_matrix(truth.doas, M)
    T = A.conj().T @ A / M
    return DiagnosticMetrics(
        t_metric=diagonality_score(T), s_metric=diagonality_score(gram)
    )
