"""Search grid with FFT fast paths for squared-norm objectives.

Every estimator in the package scores candidate angles through squared
norms ``||A^H a(u)||^2`` over the whole grid.  The u-grid is uniform on
[-1, 1) with spacing 2/N, so the steering phase at grid point p is

    exp(j pi u_p m) = (-1)^m exp(j 2 pi p m / N),

a signed inverse-DFT kernel.  That gives two fast routes for a
half-wavelength ULA, both landing in ascending-angle order:

* correlations: the complex values ``A^H a(u)`` themselves, an r x N array
  computed as N/L twiddled inverse FFTs of length L >= M (see
  grid_correlations).  The layout is operand-major: row j holds column j's
  correlations with the whole grid, contiguous.  A squared norm is a squared
  column of it (see grid_norms_sq), so spectral numerators and the greedy
  engine's scores both take this route, and each method's grid cost scales
  with the width r of its own operand.
* quadratic form: ``||A^H a(u)||^2 = a(u)^H H a(u)`` with ``H = A A^H``, a
  trigonometric polynomial evaluated by a single length-N inverse FFT of H's
  diagonal sums: O(M^2 r + N log N), independent of r past the Gram product.

Only reciprocal (noise-form) objectives, whose operands are the wide ones,
take the quadratic form, and every point below a small threshold is then
recomputed as an exact sum of squares, because their saturation test needs
vanishing norms to come out nonnegative, whereas the quadratic form reaches
zero by cancellation and can land a hair below it.  The greedy engine's
projected steering norms ``||Pc a||^2`` take neither route: they start at M
and fall by ``|q^H a|^2`` for each new basis column q, from that column's
correlations (see :mod:`doalab.greedy`).  The direct evaluator, and any grid
with another phase factor, takes the product with the stored steering matrix
instead of the FFTs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft

from doalab.scenario import steering_matrix

# Saturation guard for reciprocal (noise-form) pseudospectra: denominators
# below SAT_RTOL * M, after division by the operand's largest squared column
# norm, produce the sentinel value SAT_VALUE.
SAT_RTOL = 1e-15
SAT_VALUE = 1e15
# Ratio-form candidates whose projected steering norm falls below
# MASK_RTOL * M are masked to -inf (already-selected or degenerate angles).
MASK_RTOL = 1e-9
# Reciprocal forms evaluated through the quadratic-form fast path recompute
# every point below REFINE_RTOL times the spectrum maximum with exact
# per-column squares: the quadratic form reaches small values by
# cancellation, and near-null points are exactly where reciprocal
# objectives peak and saturate.
REFINE_RTOL = 1e-4

# Greedy objective forms that divide by ||Pc a||^2 (see apply_form).
RATIO_FORMS = ("ratio", "complement-ratio")


@dataclass(frozen=True)
class DoaGrid:
    """Uniform normalized-angle search grid tied to an array geometry.

    Attributes:
        N: Number of grid points.
        angles: The N angles, ascending, angles[p] = -1 + 2 p / N.
        M: Array element count the grid was built for.
        phase_factor: Element phase factor; the FFT path requires pi.
        steering: Precomputed M x N steering matrix on the grid, used by the
            direct evaluator.
    """

    N: int
    angles: np.ndarray
    M: int
    phase_factor: float
    steering: np.ndarray


@dataclass(frozen=True)
class Pseudospectrum:
    """A spectral objective's finite, non-negative values over a search grid."""

    values: np.ndarray
    grid: DoaGrid


def make_grid(N: int, M: int, phase_factor: float = math.pi) -> DoaGrid:
    """The N-point search grid for an M-element array, cached and read-only.

    Args:
        N: Grid size; must be even and at least 2*M so the array aperture is
            not aliased.
        M: Element count.
        phase_factor: Phase advance per element per unit u.  The FFT fast
            path applies only to the half-wavelength value pi; other values
            are served by the direct evaluator.

    Raises:
        ValueError: If N is odd or smaller than 2*M.
    """
    if N < 2 * M:
        raise ValueError(f"grid size {N} must be >= 2*M = {2 * M}")
    if N % 2:
        raise ValueError(f"grid size {N} must be even")
    return _cached_grid(N, M, phase_factor)


@functools.lru_cache(maxsize=8)
def _cached_grid(N: int, M: int, phase_factor: float) -> DoaGrid:
    angles = -1.0 + 2.0 * np.arange(N) / N
    steering = steering_matrix(angles, M, phase_factor)
    for arr in (angles, steering):
        arr.flags.writeable = False
    return DoaGrid(N, angles, M, phase_factor, steering)


@functools.lru_cache(maxsize=8)
def _diag_offsets(M: int) -> np.ndarray:
    """Diagonal offset plus M - 1 of each entry of a flattened M x M matrix."""
    rng = np.arange(M)
    idx = (rng[None, :] - rng[:, None] + M - 1).ravel()
    idx.flags.writeable = False
    return idx


def _diag_sums(H: np.ndarray) -> np.ndarray:
    """Sums of the upper diagonals of a square matrix.

    Returns g with g[d] = sum_m H[m, m + d] for d = 0 .. M-1.
    """
    M = H.shape[0]
    idx = _diag_offsets(M)
    flat = H.ravel()
    re = np.bincount(idx, weights=flat.real, minlength=2 * M - 1)
    im = np.bincount(idx, weights=flat.imag, minlength=2 * M - 1)
    return re[M - 1 :] + 1j * im[M - 1 :]


def quadform_fft(H: np.ndarray, grid: DoaGrid) -> np.ndarray:
    """``a(u)^H H a(u)`` over the grid for Hermitian H via a single FFT.

    The quadratic form is a trigonometric polynomial in u whose d-th
    coefficient is the sum of H's d-th diagonal, so one zero-padded
    length-N inverse transform evaluates it at every grid angle at once:

        a(u_p)^H H a(u_p) = g_0 + 2 Re sum_d g_d exp(j pi u_p d)
                          = 2 Re [ sum_d (-1)^d g_d exp(j 2 pi p d / N) ] - g_0

    The result lands directly in ascending-angle order.  Tiny negative
    round-off is clamped to zero so downstream masking and saturation see a
    valid squared norm.

    Args:
        H: Hermitian M x M matrix (e.g. a Gram matrix ``A A^H`` or an
            orthogonal projector).
        grid: Search grid; must have been built with the half-wavelength
            phase factor.

    Returns:
        Length-N real array aligned with ``grid.angles``.

    Raises:
        ValueError: If the grid uses a non-half-wavelength phase factor,
            for which the bin identification below does not hold.
    """
    if grid.phase_factor != math.pi:
        raise ValueError("quadform_fft requires the half-wavelength grid")
    g = _diag_sums(H)
    M = H.shape[0]
    signs = 1.0 - 2.0 * (np.arange(M) % 2)
    buf = np.zeros(grid.N, dtype=complex)
    buf[:M] = g * signs
    z = sp_fft.ifft(buf, norm="forward", overwrite_x=True)
    values = 2.0 * z.real - g[0].real
    return np.maximum(values, 0.0)


def _refined_colnorms_sq(A: np.ndarray, grid: DoaGrid) -> np.ndarray:
    """Column norms via the quadratic form, exact near the nulls.

    Scores the whole grid with one quadratic-form transform, then
    recomputes every point below REFINE_RTOL times the spectrum maximum as
    an explicit sum of squares.  Near-null values therefore carry no
    cancellation error: they stay nonnegative, vanish exactly when the
    steering vector is orthogonal to A, and keep full relative accuracy
    where reciprocal objectives peak, at any operand scale.
    """
    values = quadform_fft(A @ A.conj().T, grid)
    small = np.flatnonzero(values < REFINE_RTOL * values.max())
    if small.size:
        proj = A.conj().T @ grid.steering[:, small]
        values[small] = np.sum(proj.real**2 + proj.imag**2, axis=0)
    return values


@functools.lru_cache(maxsize=8)
def _split_twiddles(N: int, M: int) -> tuple:
    """(L, T): the smallest divisor L >= M of N, T[m, q] = (-1)^m w_N^(q m)."""
    L = next(d for d in range(M, N + 1) if N % d == 0)
    m = np.arange(M)[:, None]
    T = (1.0 - 2.0 * (m % 2)) * np.exp(2j * np.pi * m * np.arange(N // L) / N)
    T.flags.writeable = False
    return L, T


def grid_correlations(A: np.ndarray, grid: DoaGrid, evaluator: str = "fft") -> np.ndarray:
    """``A^H a(u)`` over the grid: r x N and C-contiguous, so row j holds the
    grid correlations of A's column j in ascending-angle order.

    On the fft path, grid point p = (N/L) t + q gets
    ``sum_m conj(A[m, j]) T[m, q] exp(j 2 pi t m / L)`` (see _split_twiddles):
    for each column, N/L twiddled copies of conj(A[:, j]) take length-L
    inverse FFTs that land in angle order.  Direct and non-pi grids take the
    product with the steering.
    """
    if evaluator not in ("fft", "direct"):
        raise ValueError(f"unknown evaluator: {evaluator!r}")
    if evaluator == "direct" or grid.phase_factor != math.pi:
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


def apply_form(
    values: np.ndarray, form: str, denom: np.ndarray, masked: np.ndarray
) -> np.ndarray:
    """Squared numerator norms as a "norm" or ratio-form objective, in place.

    Ratio forms divide by ``denom = ||Pc a||^2`` and set the ``masked``
    candidates, ``denom < MASK_RTOL * M``, to -inf; "norm" returns values.
    """
    if form == "norm":
        return values
    if form not in RATIO_FORMS:
        raise ValueError(f"{form!r} is not a norm or ratio form")
    np.divide(values, denom, out=values, where=~masked)
    if form == "complement-ratio":
        np.subtract(1.0, values, out=values)
    values[masked] = -np.inf
    return values


def objective_values(
    num: np.ndarray, grid: DoaGrid, form: str, evaluator: str = "fft"
) -> np.ndarray:
    """Evaluate a spectral objective form over the grid.

    Args:
        num: Operand (subspace or weighted subspace) with M rows.
        grid: Search grid.
        form: "norm" scores ``||num^H a||^2``, the squared columns of
            grid_correlations, so its cost scales with the operand's width;
            "reciprocal" scores its inverse, with saturation.
        evaluator: "fft" or "direct"; both agree to 1e-8 relative.  On the
            fft path the reciprocal form takes the width-independent
            quadratic-form route with exact refinement of near-null points.

    Returns:
        Length-N value array aligned with ``grid.angles``.

    Raises:
        ValueError: On a form other than "norm" and "reciprocal".
    """
    if form == "norm":
        return colnorms_sq(num, grid, evaluator)
    if form != "reciprocal":
        raise ValueError(f"unknown objective form: {form!r}")
    M = num.shape[0]
    if evaluator == "fft" and grid.phase_factor == math.pi:
        values = _refined_colnorms_sq(num, grid)
    else:
        values = colnorms_sq(num, grid, evaluator)
    # Normalized so that c * R selects what R selects (eigenvalue-weighted
    # operands scale with sqrt(c)); an orthonormal operand has scale 1.
    scale = np.max(np.sum(num.real**2 + num.imag**2, axis=0), initial=0.0)
    if scale > 0:
        values = values / scale
    sat = values < SAT_RTOL * M
    out = np.empty_like(values)
    out[~sat] = 1.0 / values[~sat]
    out[sat] = SAT_VALUE
    return out
