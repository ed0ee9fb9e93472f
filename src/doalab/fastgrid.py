"""Search grid with FFT fast paths for column-norm objectives.

Every estimator in the package scores candidate angles through squared
column norms ``||A^H a(u)||^2`` evaluated over the whole grid.  For a
half-wavelength ULA the grid steering matrix is a column permutation of a
conjugated DFT matrix, which yields two fast evaluations:

* per-column: the norms are batched zero-padded FFTs of A's conjugated
  columns — O(r N log N) instead of the O(r M N) direct product; and
* quadratic-form: ``||A^H a(u)||^2 = a(u)^H H a(u)`` with ``H = A A^H``,
  and on the uniform grid that trigonometric polynomial is a single
  length-N inverse FFT of H's diagonal sums — O(M^2 r + N log N) total,
  independent of the operand width r everywhere past the Gram product.

Numerators take the per-column route, so every method's grid cost scales
with the width of its own subspace operand.  Projector denominators take
the quadratic-form route (a projector is its own Gram matrix), which
removes the one always-M-wide operand from every ratio objective.
Reciprocal (noise-form) objectives combine the two: quadratic form for the
bulk of the grid, per-column refinement below a small threshold, because
their saturation test needs vanishing norms to come out as exact
nonnegative sums of squares, whereas the quadratic form reaches zero by
cancellation and can land a hair below it.

The u-grid is uniform on [-1, 1) with spacing 2/N.  Writing the steering
phase at grid point p as

    exp(j pi u_p m) = exp(-j pi m) exp(j 2 pi p m / N)
                    = exp(-j 2 pi m (N/2 - p) / N)

identifies grid point p with DFT bin (N/2 - p) mod N.  That index map is an
involution, so the same permutation converts bin order to angle order and
back.
"""

from __future__ import annotations

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

# Algebraic forms of a grid objective over an operand X (see objective_values).
FORMS = ("norm", "reciprocal", "ratio", "complement-ratio")
RATIO_FORMS = ("ratio", "complement-ratio")


@dataclass(frozen=True)
class DoaGrid:
    """Uniform normalized-angle search grid tied to an array geometry.

    Attributes:
        N: Number of grid points.
        angles: The N angles, ascending, angles[p] = -1 + 2 p / N.
        index_map: Permutation between FFT bin order and ascending-angle
            order (it is its own inverse).
        M: Array element count the grid was built for.
        phase_factor: Element phase factor; the FFT path requires pi.
        steering: Precomputed M x N steering matrix on the grid, used by the
            direct evaluator.
    """

    N: int
    angles: np.ndarray
    index_map: np.ndarray
    M: int
    phase_factor: float
    steering: np.ndarray


@dataclass(frozen=True)
class Pseudospectrum:
    """Objective values over a search grid.

    Ratio-form objectives mark excluded candidates with ``-inf``; all other
    forms are finite and non-negative.
    """

    values: np.ndarray
    grid: DoaGrid


def make_grid(N: int, M: int, phase_factor: float = math.pi) -> DoaGrid:
    """Build the N-point search grid for an M-element array.

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
    angles = -1.0 + 2.0 * np.arange(N) / N
    index_map = (N // 2 - np.arange(N)) % N
    steering = steering_matrix(angles, M, phase_factor)
    return DoaGrid(
        N=N,
        angles=angles,
        index_map=index_map,
        M=M,
        phase_factor=phase_factor,
        steering=steering,
    )


def colnorms_sq_direct(A: np.ndarray, grid: DoaGrid) -> np.ndarray:
    """``||A^H a(u)||^2`` over the grid by direct matrix product."""
    proj = A.conj().T @ grid.steering
    return np.sum(proj.real**2 + proj.imag**2, axis=0)


def colnorms_sq_fft(A: np.ndarray, grid: DoaGrid) -> np.ndarray:
    """``||A^H a(u)||^2`` over the grid via batched zero-padded FFTs.

    Each column of A contributes the squared magnitude of the length-N FFT
    of its conjugate; the accumulated bin-order powers are permuted to
    ascending-angle order.  The batch runs with the columns contiguous and
    the transform axis strided, which lets the FFT kernel vectorize across
    columns; the batch width is padded to an odd count so the transform
    stride never aliases power-of-two cache sets.  Falls back to the direct
    product when the grid was built for a non-half-wavelength phase factor.
    """
    if grid.phase_factor != math.pi:
        return colnorms_sq_direct(A, grid)
    cols = A.shape[1]
    if cols == 0:
        return np.zeros(grid.N)
    width = cols + 1 - cols % 2
    buf = np.zeros((grid.N, width), dtype=complex)
    buf[: A.shape[0], :cols] = np.conj(A)
    spectra = sp_fft.fft(buf, axis=0, overwrite_x=True)
    parts = spectra.view(np.float64).reshape(grid.N, 2 * width)[:, : 2 * cols]
    power = np.einsum("pc,pc->p", parts, parts)
    return power[grid.index_map]


# Cached flattened diagonal-offset indices for the Gram diagonal sums,
# keyed by matrix order M.
_DIAG_OFFSETS: dict[int, np.ndarray] = {}


def _diag_sums(H: np.ndarray) -> np.ndarray:
    """Sums of the upper diagonals of a square matrix.

    Returns g with g[d] = sum_m H[m, m + d] for d = 0 .. M-1.
    """
    M = H.shape[0]
    idx = _DIAG_OFFSETS.get(M)
    if idx is None:
        rng = np.arange(M)
        idx = (rng[None, :] - rng[:, None] + M - 1).ravel()
        _DIAG_OFFSETS[M] = idx
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


def colnorms_sq(A: np.ndarray, grid: DoaGrid, evaluator: str = "fft") -> np.ndarray:
    """Dispatch between the fft and direct column-norm evaluators."""
    if evaluator == "fft":
        return colnorms_sq_fft(A, grid)
    if evaluator == "direct":
        return colnorms_sq_direct(A, grid)
    raise ValueError(f"unknown evaluator: {evaluator!r}")


def objective_values(
    num: np.ndarray,
    grid: DoaGrid,
    form: str,
    evaluator: str = "fft",
    pc: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate one objective form over the grid.

    Args:
        num: Numerator operand (subspace, weighted subspace, or square-root
            residual matrix) with M rows.
        grid: Search grid.
        form: One of FORMS: "norm" scores ``||num^H a||^2``; "reciprocal"
            its inverse, with saturation; "ratio" divides it by the
            projected steering norm ``||Pc a||^2`` and "complement-ratio"
            is one minus that ratio, both masking degenerate candidates.
        evaluator: "fft" or "direct"; both agree to 1e-8 relative.  On the
            fft path, numerators ride per-column transforms, so each
            method's cost scales with its own operand width; reciprocal
            forms instead take the width-independent quadratic-form route
            with exact refinement of near-null points.
        pc: Orthogonal-complement projector, required by ratio forms; it is
            Hermitian idempotent, hence its own Gram matrix, so on the fft
            path the denominator ``||Pc a||^2 = a^H Pc a`` is a single
            quadratic-form transform with no matrix product at all.

    Returns:
        Length-N value array aligned with ``grid.angles``.

    Raises:
        ValueError: On an unknown form, or a ratio form without ``pc``.
    """
    if form not in FORMS:
        raise ValueError(f"unknown objective form: {form!r}")
    M = num.shape[0]
    quad = evaluator == "fft" and grid.phase_factor == math.pi
    if form == "reciprocal":
        if quad:
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
    values = colnorms_sq(num, grid, evaluator)
    if form == "norm":
        return values
    if pc is None:
        raise ValueError(f"form {form!r} needs the complement projector")
    denom = quadform_fft(pc, grid) if quad else colnorms_sq(pc, grid, evaluator)
    masked = denom < MASK_RTOL * M
    safe = np.where(masked, 1.0, denom)
    if form == "ratio":
        out = values / safe
    else:  # complement-ratio
        out = 1.0 - values / safe
    out[masked] = -np.inf
    return out

