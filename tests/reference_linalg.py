"""Reference linear algebra the tests check the estimators against.

A normal-equations pseudoinverse and the subspace projectors built on it:
the estimators never form either (the greedy engine grows an orthonormal
basis instead, see :mod:`doalab.greedy`), so they live here as the
from-scratch oracle, with the residual of any operand against a greedy
state's basis.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

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
