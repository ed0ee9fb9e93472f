"""The greedy engine: one grid point per iteration over a growing orthonormal basis.

Every greedy estimator in the package is the same loop over a different
operand X: the covariance square root for OMP/OLS, and the signal subspace,
its eigenvalue-weighted form or the noise subspace for the iterative-MUSIC
family (see :mod:`doalab.methods`).  Each iteration scores the grid on the
residual ``X - Q (Q^H X)``, where the columns of Q are an orthonormal basis of
the selected steering span, and appends the index of the best grid point.
The "norm" form scores ``||residual^H a(u)||^2`` (OMP-type); the ratio forms
divide that by the projected steering norm ``||Pc a(u)||^2`` with
``Pc = I - Q Q^H``, which is the least-squares improvement of refitting all
selected angles plus the candidate (OLS-type).

The basis grows by one column per selection: the picked point's column of
the grid's steering table (``grid.steering``) is orthogonalized against Q
twice (classical Gram-Schmidt with one reorthogonalization, CGS2).  This is
the orthogonal form of OLS (Chen, Billings & Luo 1989); the second pass
keeps Q orthonormal to machine precision however ill-conditioned the
selected steering matrix becomes ("twice is enough": Giraud, Langou &
Rozložník 2005).  So no per-iteration
rebuild of the selected steering matrix, pseudoinverse or projector is
needed, and the rank guard is simply the new column's residual norm.

Nor is the residual transformed again.  The state holds its grid
correlations ``Z = residual^H a(u)``, r x N in grid_correlations' operand-major
layout, and ``d = ||Pc a(u)||^2``; a new column q with ``c = q^H a(u)`` and
``w = residual^H q`` updates them in place by ``Z -= w c^T``, ``d -= |c|^2``
(the recursions of Rebollo-Neira & Lowe 2002), so an estimate transforms its
operand once, then one column per selection.  In that layout the rank-one
update of Z is r contiguous length-N axpys.  Scores are Z's squared column
norms: recursing on the norms instead cancels against their initial values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import zgeru

from doalab.fastgrid import DoaGrid, check_operand, grid_correlations, grid_norms_sq

# Candidates with ||Pc a||^2 < MASK_RTOL * M are masked (the selected and
# degenerate angles); a new basis column below it trips the rank guard.
MASK_RTOL = 1e-9
# Objective forms that divide by ||Pc a||^2 (OLS-type).
RATIO_FORMS = ("ratio", "complement-ratio")


@dataclass
class GreedyState:
    """Selection state of one greedy run on one operand X, updated in place.

    Attributes:
        selected: Grid indices chosen so far, in selection order
            (``grid.angles[list(selected)]`` are the angles).
        res: M x r residual ``X - Q (Q^H X)``.
        Z: r x N grid correlations ``res^H a(u)``, in ascending-angle order
            along each row.
        d: ``||Pc a(u)||^2`` over the grid.
        masked: ``d < MASK_RTOL * M``, the candidates every form passes over
            (the selected points among them).
        grid, evaluator: Where and how Z is evaluated.
        basis: M x M buffer whose first len(selected) columns are Q.
        basis_h: M x M buffer whose first len(selected) rows are Q^H.
    """

    selected: tuple
    res: np.ndarray
    Z: np.ndarray
    d: np.ndarray
    masked: np.ndarray
    grid: DoaGrid
    evaluator: str
    basis: np.ndarray
    basis_h: np.ndarray

    @property
    def Q(self) -> np.ndarray:
        """M x len(selected) orthonormal basis of the selected steering span."""
        return self.basis[:, : len(self.selected)]


def initial_state(X: np.ndarray, grid: DoaGrid, evaluator: str = "fft") -> GreedyState:
    """State before any selection: the residual is X, transformed once.
    Raises ValueError unless X has ``grid.M`` rows."""
    check_operand(X, grid)
    M, res = X.shape[0], np.array(X, dtype=complex, order="C")
    Z, d = grid_correlations(res, grid, evaluator), np.full(grid.N, float(M))
    masked = np.zeros(grid.N, dtype=bool)
    basis, basis_h = np.zeros((M, M), dtype=complex), np.zeros((M, M), dtype=complex)
    return GreedyState((), res, Z, d, masked, grid, evaluator, basis, basis_h)


def greedy_objective(state: GreedyState, form: str) -> np.ndarray:
    """Scores for the next grid point in ``form``: "norm" is the raw
    ``||res^H a||^2``; "ratio" divides it by ``d = ||Pc a||^2`` and
    "complement-ratio" takes 1 minus that, both -inf at masked candidates.
    Raises ValueError on any other form."""
    values = grid_norms_sq(state.Z)
    if form == "norm":
        return values
    if form not in RATIO_FORMS:
        raise ValueError(f"{form!r} is not a norm or ratio form")
    np.divide(values, state.d, out=values, where=~state.masked)
    if form == "complement-ratio":
        np.subtract(1.0, values, out=values)
    values[state.masked] = -np.inf
    return values


def greedy_update(state: GreedyState, p: int) -> None:
    """Add grid point ``p`` in place: append its column of ``grid.steering``,
    orthogonalized twice against Q, and update res, Z and d by that one column.

    Raises:
        ValueError: Unless ``0 <= p < grid.N``, or if p was already selected.
        numpy.linalg.LinAlgError: If the steering column's residual squared
            norm falls below ``MASK_RTOL * M``, the threshold at which ratio
            objectives mask a candidate (a near-duplicate selection).
    """
    if not 0 <= p < state.grid.N:
        raise ValueError(f"grid index out of range: {p}")
    if p in state.selected:
        raise ValueError(f"grid index {p} already selected")
    k = len(state.selected)
    Q, Qh = state.Q, state.basis_h[:k]
    M = Q.shape[0]
    a = state.grid.steering[:, p]
    for _ in range(2):
        a = a - Q @ (Qh @ a)
    norm_sq = float(np.vdot(a, a).real)
    if norm_sq < MASK_RTOL * M:
        raise np.linalg.LinAlgError(
            "rank-deficient selection (near-duplicate selected angles)"
        )
    q = a / math.sqrt(norm_sq)
    state.basis[:, k] = q
    state.basis_h[k] = q.conj()
    c = grid_correlations(q[:, None], state.grid, state.evaluator)
    v = state.basis_h[k] @ state.res  # q^H res, so w = conj(v)
    state.Z = zgeru(-1.0, c[0], v.conj(), a=state.Z.T, overwrite_a=True).T  # Z -= w c^T
    c_sq = np.square(c.real)
    c_sq += np.square(c.imag)
    state.d -= c_sq[0]
    np.less(state.d, MASK_RTOL * M, out=state.masked)
    state.res -= np.outer(q, v)
    state.selected += (int(p),)


def greedy_step(state: GreedyState, form: str) -> None:
    """One iteration: select the grid index with the best score.

    Candidates that ratio forms mask (``||Pc a||^2`` below MASK_RTOL * M, the
    selected points among them) are passed over in every form, so a
    residual that scores zero everywhere still selects a fresh point.
    """
    values = greedy_objective(state, form)
    values[state.masked] = -np.inf
    greedy_update(state, int(np.argmax(values)))
