"""Search grid with FFT fast paths for squared-norm objectives.

Every estimator in the package scores candidate angles through squared
norms ``||A^H a(u)||^2`` over the whole grid.  The u-grid is uniform on
[-1, 1) with spacing 2/N, so the steering phase at grid point p is

    exp(j pi u_p m) = (-1)^m exp(j 2 pi p m / N),

a signed inverse-DFT kernel on the package's half-wavelength ULA.  That
gives two fast routes, both landing in ascending-angle order:

* correlations: the complex values ``A^H a(u)`` themselves, an r x N array
  computed as N/L twiddled inverse FFTs of length L >= M (see
  grid_correlations).  The layout is operand-major: row j holds column j's
  correlations with the whole grid, contiguous.  A squared norm is a squared
  column of it (see grid_norms_sq).  The greedy engine's scores take this
  route, because it updates the correlations it holds column by column, so
  its grid cost scales with the width r of its operand.
* quadratic form: ``||A^H a(u)||^2 = a(u)^H H a(u)`` with ``H = A A^H``, a
  real trigonometric polynomial evaluated by a single length-N real inverse
  FFT of H's diagonal sums: O(M^2 r + N log N), independent of r past the
  Gram product.

Every spectral objective, signal (norm) and noise (reciprocal) form alike,
takes the quadratic form.  A reciprocal form then recomputes every point
below a small threshold as an exact sum of squares, because its saturation
test needs vanishing norms to come out nonnegative, whereas the quadratic
form reaches zero by cancellation and can land a hair below it; a norm form
peaks where the values are large, so it needs no such refinement.  The
greedy engine's projected steering norms ``||Pc a||^2`` take neither route:
they start at M and fall by ``|q^H a|^2`` for each new basis column q, from
that column's correlations (see :mod:`doalab.greedy`).  The direct
evaluator takes the product with the stored steering matrix instead of the
FFTs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft

from doalab.scenario import steering_matrix

# Saturation guard for reciprocal (noise-form) pseudospectra: denominators
# below SAT_RTOL * M, after division by the operand's largest squared column
# norm, produce the sentinel value SAT_VALUE.
SAT_RTOL = 1e-15
SAT_VALUE = 1e15
# Reciprocal forms evaluated through the quadratic-form fast path recompute
# every point below REFINE_RTOL times the spectrum maximum with exact
# per-column squares: the quadratic form reaches small values by
# cancellation, and near-null points are exactly where reciprocal
# objectives peak and saturate.
REFINE_RTOL = 1e-4

# FFT fast paths, or products with the stored steering (see grid_correlations).
EVALUATORS = ("fft", "direct")


@dataclass(frozen=True)
class DoaGrid:
    """Uniform normalized-angle search grid for an M-element array.

    Attributes:
        N: Number of grid points.
        angles: The N angles, ascending, angles[p] = -1 + 2 p / N.
        M: Array element count the grid was built for.
        steering: Precomputed M x N steering matrix on the grid, used by the
            direct evaluator.
    """

    N: int
    angles: np.ndarray
    M: int
    steering: np.ndarray


@dataclass(frozen=True)
class Pseudospectrum:
    """A spectral objective's finite, non-negative values over a search grid."""

    values: np.ndarray
    grid: DoaGrid


def make_grid(N: int, M: int) -> DoaGrid:
    """The N-point search grid for an M-element array, cached and read-only.

    Args:
        N: Grid size; must be even and at least 2*M so the array aperture is
            not aliased.
        M: Element count.

    Raises:
        ValueError: If N is odd or smaller than 2*M.
    """
    if N < 2 * M:
        raise ValueError(f"grid size {N} must be >= 2*M = {2 * M}")
    if N % 2:
        raise ValueError(f"grid size {N} must be even")
    return _cached_grid(N, M)


@functools.lru_cache(maxsize=8)
def _cached_grid(N: int, M: int) -> DoaGrid:
    angles = -1.0 + 2.0 * np.arange(N) / N
    steering = steering_matrix(angles, M)
    for arr in (angles, steering):
        arr.flags.writeable = False
    return DoaGrid(N, angles, M, steering)


@functools.lru_cache(maxsize=8)
def _diag_offsets(M: int) -> np.ndarray:
    """Bincount bins of the float64 view of a flattened M x M complex matrix.

    Entry (m, n) has diagonal offset d = n - m; its real part goes to bin
    2 (d + M - 1) and its imaginary part to the bin after, so the bin sums
    view as the complex diagonal sums for d = 1 - M .. M - 1.
    """
    rng = np.arange(M)
    diag = 2 * (rng[None, :] - rng[:, None] + M - 1).ravel()
    idx = np.stack((diag, diag + 1), axis=1).ravel()
    idx.flags.writeable = False
    return idx


def _diag_sums(H: np.ndarray) -> np.ndarray:
    """Sums of the upper diagonals of a square matrix.

    Returns g with g[d] = sum_m H[m, m + d] for d = 0 .. M-1.
    """
    M = H.shape[0]
    parts = np.ascontiguousarray(H, dtype=complex).view(np.float64).ravel()
    sums = np.bincount(_diag_offsets(M), weights=parts, minlength=2 * (2 * M - 1))
    return sums.view(complex)[M - 1 :]


def quadform_fft(H: np.ndarray, grid: DoaGrid) -> np.ndarray:
    """``a(u)^H H a(u)`` over the grid for Hermitian H via a single FFT.

    The quadratic form is a real trigonometric polynomial in u whose d-th
    coefficient is the sum g_d of H's d-th diagonal (the -d-th sums to
    conj(g_d)), so one zero-padded real inverse transform of the half
    spectrum evaluates it at every grid angle at once:

        a(u_p)^H H a(u_p) = g_0 + 2 Re sum_{d>=1} g_d exp(j pi u_p d)
                          = irfft((-1)^d g_d, n=N)[p]

    with no 1/N factor.  Since N >= 2M the Nyquist bin stays zero.  The
    result lands directly in ascending-angle order.  Tiny negative
    round-off is clamped to zero so downstream masking and saturation see a
    valid squared norm.

    Args:
        H: Hermitian M x M matrix (e.g. a Gram matrix ``A A^H`` or an
            orthogonal projector).
        grid: Search grid.

    Returns:
        Length-N real array aligned with ``grid.angles``.
    """
    M = H.shape[0]
    buf = np.zeros(grid.N // 2 + 1, dtype=complex)
    buf[:M] = _diag_sums(H)
    buf[1:M:2] *= -1.0
    values = sp_fft.irfft(buf, n=grid.N, norm="forward", overwrite_x=True)
    return np.maximum(values, 0.0, out=values)


def _refine_near_nulls(values: np.ndarray, A: np.ndarray, grid: DoaGrid) -> None:
    """Make quadratic-form column norms exact near the nulls, in place.

    Recomputes every point below REFINE_RTOL times the spectrum maximum as
    an explicit sum of squares.  Near-null values therefore carry no
    cancellation error: they stay nonnegative, vanish exactly when the
    steering vector is orthogonal to A, and keep full relative accuracy
    where reciprocal objectives peak, at any operand scale.
    """
    small = np.flatnonzero(values < REFINE_RTOL * values.max())
    if small.size:
        proj = A.conj().T @ grid.steering[:, small]
        values[small] = np.sum(proj.real**2 + proj.imag**2, axis=0)


@functools.lru_cache(maxsize=8)
def _split_twiddles(N: int, M: int) -> tuple:
    """(L, T): the smallest divisor L >= M of N, T[m, q] = (-1)^m w_N^(q m)."""
    L = next(d for d in range(M, N + 1) if N % d == 0)
    m = np.arange(M)[:, None]
    T = (1.0 - 2.0 * (m % 2)) * np.exp(2j * np.pi * m * np.arange(N // L) / N)
    T.flags.writeable = False
    return L, T


def check_operand(A: np.ndarray, grid: DoaGrid) -> None:
    """Reject an operand whose row count is not the grid's element count."""
    if A.shape[0] != grid.M:
        raise ValueError(f"operand has {A.shape[0]} rows but the grid has M={grid.M}")


def grid_correlations(A: np.ndarray, grid: DoaGrid, evaluator: str = "fft") -> np.ndarray:
    """``A^H a(u)`` over the grid: r x N and C-contiguous, so row j holds the
    grid correlations of A's column j in ascending-angle order.

    On the fft path, grid point p = (N/L) t + q gets
    ``sum_m conj(A[m, j]) T[m, q] exp(j 2 pi t m / L)`` (see _split_twiddles):
    for each column, N/L twiddled copies of conj(A[:, j]) take length-L
    inverse FFTs that land in angle order.  Direct takes the product with the
    steering.
    """
    if evaluator not in EVALUATORS:
        raise ValueError(f"unknown evaluator: {evaluator!r}")
    if evaluator == "direct":
        return A.conj().T @ grid.steering
    M, r = A.shape
    L, T = _split_twiddles(grid.N, M)
    buf = np.zeros((r, L, grid.N // L), dtype=complex)
    np.multiply(T[None, :, :], A.conj().T[:, :, None], out=buf[:, :M])
    return sp_fft.ifft(buf, axis=1, norm="forward", overwrite_x=True).reshape(r, grid.N)


def grid_norms_sq(Z: np.ndarray) -> np.ndarray:
    """Squared norms of the columns of a C-contiguous r x N complex array:
    ``||A^H a(u)||^2`` over the grid from ``Z = grid_correlations(A, ...)``."""
    parts = Z.view(np.float64)
    sums = np.einsum("cp,cp->p", parts, parts)
    return sums[0::2] + sums[1::2]


def colnorms_sq(A: np.ndarray, grid: DoaGrid, evaluator: str = "fft") -> np.ndarray:
    """``||A^H a(u)||^2`` over the grid: the squared columns of grid_correlations."""
    return grid_norms_sq(grid_correlations(A, grid, evaluator))


def objective_values(
    num: np.ndarray, grid: DoaGrid, form: str, evaluator: str = "fft"
) -> np.ndarray:
    """Evaluate a spectral objective form over the grid.

    Args:
        num: Operand (subspace or weighted subspace) with M rows.
        grid: Search grid.
        form: "norm" scores ``||num^H a||^2``; "reciprocal" scores its
            inverse, with saturation.
        evaluator: "fft" or "direct"; both agree to 1e-8 relative.  On the
            fft path both forms take the width-independent quadratic-form
            route, one FFT of the Gram ``num num^H``, and the reciprocal form
            recomputes its near-null points exactly; direct takes the
            squared columns of grid_correlations, whose cost scales with the
            operand's width.

    Returns:
        Length-N value array aligned with ``grid.angles``.

    Raises:
        ValueError: On a form other than "norm" and "reciprocal", or an
            operand whose row count is not ``grid.M``.
    """
    check_operand(num, grid)
    if form not in ("norm", "reciprocal"):
        raise ValueError(f"unknown objective form: {form!r}")
    if evaluator == "fft":
        values = quadform_fft(num @ num.conj().T, grid)
        if form == "reciprocal":
            _refine_near_nulls(values, num, grid)
    else:
        values = colnorms_sq(num, grid, evaluator)
    if form == "norm":
        return values
    # Normalized so that c * R selects what R selects (eigenvalue-weighted
    # operands scale with sqrt(c)); an orthonormal operand has scale 1.
    scale = np.max(np.sum(num.real**2 + num.imag**2, axis=0), initial=0.0)
    if scale > 0:
        values /= scale
    sat = values < SAT_RTOL * num.shape[0]
    out = np.full_like(values, SAT_VALUE)
    return np.divide(1.0, values, out=out, where=~sat)
