"""The greedy engine: one angle per iteration over a growing orthonormal basis.

Every greedy estimator in the package is the same loop over a different
operand X: the covariance square root for OMP/OLS, and the signal subspace,
its eigenvalue-weighted form or the noise subspace for the iterative-MUSIC
family (see :mod:`doalab.methods`).  Each iteration scores the grid on the
residual ``X - Q (Q^H X)``, where the columns of Q are an orthonormal basis of
the selected steering span, and appends the best angle.  The "norm" form
scores ``||residual^H a(u)||^2`` (OMP-type); the ratio forms divide that by
the projected steering norm ``||Pc a(u)||^2`` with ``Pc = I - Q Q^H``, which
is the least-squares improvement of refitting all selected angles plus the
candidate (OLS-type).

The basis grows by one column per selection: the new steering vector is
orthogonalized against Q twice (classical Gram-Schmidt with one
reorthogonalization, CGS2).  This is the orthogonal form of OLS (Chen,
Billings & Luo 1989); the second pass keeps Q orthonormal to machine
precision however ill-conditioned the selected steering matrix becomes
("twice is enough": Giraud, Langou & Rozložník 2005).  So no per-iteration
rebuild of the selected steering matrix, pseudoinverse or projector is
needed, and the rank guard is simply the new column's residual norm.

Nor is the residual transformed again.  The state holds its grid
correlations ``Z = residual^H a(u)`` and ``d = ||Pc a(u)||^2``; a new column q
with ``c = q^H a(u)`` and ``w = residual^H q`` updates them in place by
``Z -= c w^T``, ``d -= |c|^2`` (the recursions of Rebollo-Neira & Lowe 2002),
so an estimate transforms its operand once, then one column per selection.
Scores are Z's squared row norms: recursing on the norms instead cancels
against their initial values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import zgeru

from doalab.fastgrid import MASK_RTOL, DoaGrid, apply_form, grid_correlations, row_norms_sq
from doalab.scenario import steering_vector


@dataclass
class GreedyState:
    """Selection state of one greedy run on one operand X, updated in place.

    Attributes:
        selected: Angles chosen so far, in selection order.
        Q: M x len(selected) orthonormal basis of their steering span.
        res: M x r residual ``X - Q (Q^H X)``.
        Z: N x r grid correlations ``res^H a(u)``, in ascending-angle order.
        d: ``||Pc a(u)||^2`` over the grid.
        grid, evaluator: Where and how Z is evaluated.
    """

    selected: tuple
    Q: np.ndarray
    res: np.ndarray
    Z: np.ndarray
    d: np.ndarray
    grid: DoaGrid
    evaluator: str

    def residual(self, X: np.ndarray) -> np.ndarray:
        """``X - Q (Q^H X)``: any X projected onto the complement of the span."""
        return X - self.Q @ (self.Q.conj().T @ X)

    @property
    def Pc(self) -> np.ndarray:
        """M x M projector ``I - Q Q^H`` onto the complement of the span."""
        return np.eye(self.Q.shape[0], dtype=complex) - self.Q @ self.Q.conj().T


def initial_state(X: np.ndarray, grid: DoaGrid, evaluator: str = "fft") -> GreedyState:
    """State before any selection: the residual is X, transformed once."""
    M, res = X.shape[0], np.array(X, dtype=complex, order="C")
    Z, d = grid_correlations(res, grid, evaluator), np.full(grid.N, float(M))
    return GreedyState((), np.empty((M, 0), dtype=complex), res, Z, d, grid, evaluator)


def greedy_objective(state: GreedyState, form: str) -> np.ndarray:
    """Scores for the next angle in ``form`` ("norm", "ratio" or
    "complement-ratio"); ratio forms mask degenerate candidates with -inf."""
    return apply_form(row_norms_sq(state.Z), form, state.d, state.res.shape[0])


def greedy_update(state: GreedyState, new_angle: float) -> None:
    """Add one angle in place: append its steering vector, orthogonalized
    twice against Q, and update res, Z and d by that one column.

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
    a = steering_vector(new_angle, M, state.grid.phase_factor)
    for _ in range(2):
        a = a - Q @ (Q.conj().T @ a)
    norm_sq = float(np.vdot(a, a).real)
    if norm_sq < MASK_RTOL * M:
        raise np.linalg.LinAlgError(
            "rank-deficient selection (near-duplicate selected angles)"
        )
    q = a / math.sqrt(norm_sq)
    c = grid_correlations(q[:, None], state.grid, state.evaluator)[:, 0]
    w = state.res.conj().T @ q
    state.Z = zgeru(-1.0, w, c, a=state.Z.T, overwrite_a=True).T  # Z -= c w^T, in place
    state.d -= c.real**2 + c.imag**2
    state.res -= np.outer(q, w.conj())
    state.Q = np.column_stack([Q, q])
    state.selected += (float(new_angle),)


def greedy_step(state: GreedyState, form: str) -> None:
    """One iteration: select the grid angle with the best score.

    Candidates that ratio forms mask (``||Pc a||^2`` below MASK_RTOL * M, the
    selected angles among them) are passed over in every form, so a
    residual that scores zero everywhere still selects a fresh angle.
    """
    values = greedy_objective(state, form)
    values[state.d < MASK_RTOL * state.res.shape[0]] = -np.inf
    greedy_update(state, state.grid.angles[int(np.argmax(values))])
