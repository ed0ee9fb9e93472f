"""The greedy engine: one angle per iteration over a growing orthonormal basis.

Every greedy estimator in the package is the same loop over a different
operand X: the covariance square root for OMP/OLS, and the signal subspace,
its eigenvalue-weighted form or the noise subspace for the iterative-MUSIC
family (see :mod:`doalab.gimusic`).  Each iteration scores the grid on the
residual ``X - Q (Q^H X)``, where the columns of Q are an orthonormal basis of
the selected steering span, and appends the best angle.  OMP-type variants
score ``||residual^H a(u)||^2``; OLS-type variants divide that by the
projected steering norm ``||Pc a(u)||^2`` with ``Pc = I - Q Q^H``, which is
the least-squares improvement of refitting all selected angles plus the
candidate.

The basis grows by one column per selection: the new steering vector is
orthogonalized against Q twice (classical Gram-Schmidt with one
reorthogonalization, CGS2).  This is the orthogonal form of OLS (Chen,
Billings & Luo 1989); the second pass keeps Q orthonormal to machine
precision however ill-conditioned the selected steering matrix becomes
("twice is enough": Giraud, Langou & Rozložník 2005).  So no per-iteration
rebuild of the selected steering matrix, pseudoinverse or projector is
needed, and the rank guard is simply the new column's residual norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from doalab.fastgrid import MASK_RTOL, DoaGrid, objective_values
from doalab.scenario import steering_vector

GREEDY_METHODS = ("omp", "ols")


@dataclass(frozen=True)
class GreedyState:
    """Selection state after ``len(selected)`` greedy iterations.

    Attributes:
        selected: Angles chosen so far, in selection order.
        Q: M x len(selected) matrix with orthonormal columns spanning their
            steering vectors.
        phase_factor: Element phase factor of the steering vectors.
    """

    selected: tuple
    Q: np.ndarray
    phase_factor: float = math.pi

    def residual(self, X: np.ndarray) -> np.ndarray:
        """``X - Q (Q^H X)``: X projected onto the complement of the span."""
        return X - self.Q @ (self.Q.conj().T @ X)

    @property
    def Pc(self) -> np.ndarray:
        """M x M projector ``I - Q Q^H`` onto the complement of the span."""
        return np.eye(self.Q.shape[0], dtype=complex) - self.Q @ self.Q.conj().T


def initial_state(M: int, phase_factor: float = math.pi) -> GreedyState:
    """State before any selection: an empty basis, so every residual is X."""
    return GreedyState(
        selected=(), Q=np.empty((M, 0), dtype=complex), phase_factor=phase_factor
    )


def greedy_objective(
    state: GreedyState,
    X: np.ndarray,
    grid: DoaGrid,
    variant: str,
    evaluator: str = "fft",
) -> np.ndarray:
    """Candidate scores for the next angle, aligned with ``grid.angles``.

    The numerator is the residual of the operand X; OLS-type variants (every
    id starting with "ols") are ratio forms and also get the complement
    projector, whose degenerate candidates (projected steering norm below
    ``MASK_RTOL * M``, e.g. already selected) score -inf.
    """
    pc = state.Pc if variant.startswith("ols") else None
    return objective_values(state.residual(X), grid, variant, evaluator, pc=pc)


def greedy_update(state: GreedyState, new_angle: float) -> GreedyState:
    """Add one angle: append its steering vector orthogonalized twice against Q.

    Raises:
        ValueError: If the angle was already selected.
        numpy.linalg.LinAlgError: If the steering vector's residual squared
            norm falls below ``MASK_RTOL * M``, the threshold at which ratio
            objectives mask a candidate (a near-duplicate selection).
    """
    if new_angle in state.selected:
        raise ValueError(f"angle {new_angle} already selected")
    Q = state.Q
    M = Q.shape[0]
    a = steering_vector(new_angle, M, state.phase_factor)
    for _ in range(2):
        a = a - Q @ (Q.conj().T @ a)
    norm_sq = float(np.vdot(a, a).real)
    if norm_sq < MASK_RTOL * M:
        raise np.linalg.LinAlgError(
            "rank-deficient selection (near-duplicate selected angles)"
        )
    return GreedyState(
        selected=state.selected + (float(new_angle),),
        Q=np.column_stack([Q, a / math.sqrt(norm_sq)]),
        phase_factor=state.phase_factor,
    )


def greedy_step(
    state: GreedyState,
    X: np.ndarray,
    grid: DoaGrid,
    variant: str,
    evaluator: str = "fft",
) -> GreedyState:
    """One iteration: select the grid angle with the best score."""
    values = greedy_objective(state, X, grid, variant, evaluator)
    return greedy_update(state, grid.angles[int(np.argmax(values))])


def greedy_estimate(
    sqrt_R: np.ndarray,
    K: int,
    grid: DoaGrid,
    method: str = "omp",
    evaluator: str = "fft",
) -> np.ndarray:
    """Run K OMP or OLS iterations and return the selected angles in order.

    Args:
        sqrt_R: M x M covariance square root, the operand of both methods.
        K: Number of angles to select, 1 <= K < M.
        grid: Search grid.
        method: "omp" or "ols".
        evaluator: "fft" or "direct".
    """
    if method not in GREEDY_METHODS:
        raise ValueError(f"unknown greedy method: {method!r}")
    M = sqrt_R.shape[0]
    if not 1 <= K < M:
        raise ValueError(f"K must satisfy 1 <= K < M, got K={K}, M={M}")
    state = initial_state(M, grid.phase_factor)
    for _ in range(K):
        state = greedy_step(state, sqrt_R, grid, method, evaluator)
    return np.array(state.selected)
