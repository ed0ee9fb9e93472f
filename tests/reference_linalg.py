"""Reference linear algebra the tests check the estimators against.

A normal-equations pseudoinverse and the subspace projectors built on it:
the estimators never form either (the greedy engine grows an orthonormal
basis instead, see :mod:`doalab.greedy`), so they live here as the
from-scratch oracle, with the residual of any operand against a greedy
state's basis, that state's complement projector, the ratio-form
objectives scored from such a projector, and the per-iteration
eigendecompositions of re-decomposing iterative-MUSIC schemes.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from doalab import methods
from doalab.fastgrid import (
    MASK_RTOL,
    RATIO_FORMS,
    apply_form,
    colnorms_sq,
    objective_values,
    quadform_fft,
)
from doalab.linalg import hermitian_evd

# Rank guard for the normal-equations pseudoinverse.
RANK_RTOL = 1e-12


def pseudoinverse(A: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a tall full-column-rank matrix.

    Computed as (A^H A)^{-1} A^H via a Cholesky factorization of the small
    Gram matrix; selected-steering matrices, which it is meant for, have far
    fewer columns than rows, so the normal-equations route is both cheap and
    stable enough.

    Args:
        A: Matrix with rows >= cols.

    Returns:
        The cols x rows pseudoinverse; for zero columns, a 0 x rows matrix.

    Raises:
        ValueError: If A has more columns than rows.
        np.linalg.LinAlgError: If A^H A is singular at the ``RANK_RTOL``
            rank guard (near-duplicate columns).
    """
    A = np.asarray(A)
    rows, cols = A.shape
    if cols > rows:
        raise ValueError(f"expected rows >= cols, got shape {A.shape}")
    if cols == 0:
        return np.zeros((0, rows), dtype=complex)
    gram = A.conj().T @ A
    gw = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
    if gw[0] < RANK_RTOL * max(gw[-1], 0.0) or gw[-1] <= 0:
        raise np.linalg.LinAlgError(
            "rank-deficient matrix (near-duplicate selected angles)"
        )
    return cho_solve(cho_factor(gram), A.conj().T)


def projectors(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal projectors onto the column span of A and its complement.

    Args:
        A: M x k matrix, k possibly 0 (empty selection).

    Returns:
        Tuple (P, Pc) of M x M matrices with P = A @ pinv(A) and
        Pc = I - P.  An empty A yields P = 0 and Pc = I.
    """
    A = np.asarray(A)
    M = A.shape[0]
    if A.shape[1] == 0:
        return np.zeros((M, M), dtype=complex), np.eye(M, dtype=complex)
    P = A @ pseudoinverse(A)
    P = 0.5 * (P + P.conj().T)  # exact Hermitian symmetry
    return P, np.eye(M, dtype=complex) - P


def residual(state, X: np.ndarray) -> np.ndarray:
    """``X - Q (Q^H X)``: any X projected onto the complement of a greedy
    state's selected span."""
    return X - state.Q @ (state.Q.conj().T @ X)


def complement_projector(state) -> np.ndarray:
    """M x M projector ``I - Q Q^H`` onto the complement of a greedy state's
    selected span."""
    k = len(state.selected)
    return np.eye(state.basis.shape[0], dtype=complex) - state.Q @ state.basis_h[:k]


def reference_objective_values(num, grid, form, evaluator="fft", pc=None) -> np.ndarray:
    """:func:`doalab.fastgrid.objective_values`, plus the ratio forms scored
    from scratch: ``||num^H a||^2`` over the projected steering norm
    ``||Pc a||^2``.  The complement projector ``pc`` is Hermitian idempotent,
    hence its own Gram matrix, so on the fft path the denominator
    ``a^H Pc a`` is a single quadratic-form transform.

    Raises:
        ValueError: On a ratio form without ``pc``.
    """
    if form not in RATIO_FORMS:
        return objective_values(num, grid, form, evaluator)
    if pc is None:
        raise ValueError(f"form {form!r} needs the complement projector")
    M = num.shape[0]
    quad = evaluator == "fft"
    values = colnorms_sq(num, grid, evaluator)
    denom = quadform_fft(pc, grid) if quad else colnorms_sq(pc, grid, evaluator)
    return apply_form(values, form, denom, denom < MASK_RTOL * M)


def estimate_with_evd_per_iter(method, R, K, grid, evaluator="fft") -> np.ndarray:
    """``estimate_method`` with the cost profile of iterative-MUSIC schemes
    that re-decompose the residual covariance every iteration.

    Before each greedy step after the first, ``Pc R Pc`` is eigendecomposed
    and the result discarded, so the selections are estimate_method's own
    while a greedy estimate of K angles runs K eigendecompositions, not 1.
    """
    real_step = methods.greedy_step

    def step(state, form):
        if state.selected:
            pc = complement_projector(state)
            residual_cov = pc @ R @ pc
            hermitian_evd(0.5 * (residual_cov + residual_cov.conj().T))
        real_step(state, form)

    methods.greedy_step = step
    try:
        return methods.estimate_method(method, R, K, grid, evaluator)
    finally:
        methods.greedy_step = real_step
