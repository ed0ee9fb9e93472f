"""Grid construction, the grid correlations and the objectives scored on them."""

import math

import numpy as np
import pytest

from conftest import random_complex, random_covariance
from doalab import fastgrid, linalg
from doalab.fastgrid import (
    SAT_VALUE,
    apply_form,
    colnorms_sq,
    grid_correlations,
    make_grid,
    objective_values,
    quadform_fft,
)
from doalab.methods import METHOD_IDS, METHODS, estimate_method, pseudospectrum
from doalab.order import aic_rank, hybrid_order
from doalab.scenario import steering_matrix
from doalab.subspace import partition
from reference_linalg import projectors


# ---------------------------------------------------------------- grid


@pytest.mark.parametrize("evaluator", ["fft", "direct"])
@pytest.mark.parametrize("M, grid_args", [(8, (64, 16)), (64, (32, 8))])
def test_grid_for_another_array_size_is_rejected(M, grid_args, evaluator):
    # Unchecked, the M=8 covariance on the M=16 grid returns angles on the fft
    # path and fails inside numpy's matmul on the direct one; the M=64
    # covariance on the N=32 grid finds no FFT split length.
    grid = make_grid(*grid_args)
    R = random_covariance(np.random.default_rng(M), M)
    match = f"operand has {M} rows but the grid has M={grid.M}"
    for method in METHOD_IDS:
        with pytest.raises(ValueError, match=match):
            estimate_method(method, R, 2, grid, evaluator)
    dec = partition(R, 2)
    for variant in (m for m in METHOD_IDS if not METHODS[m].greedy):
        with pytest.raises(ValueError, match=match):
            pseudospectrum(dec, grid, variant, evaluator)
    base = aic_rank(dec.eigenvalues, 64)
    with pytest.raises(ValueError, match=match):
        hybrid_order(dec.sqrt_R, grid, base.k_hat, 64, evaluator)


def test_make_grid_structure():
    grid = make_grid(64, 8)
    assert grid.N == 64 and grid.M == 8
    np.testing.assert_allclose(grid.angles, -1.0 + 2.0 * np.arange(64) / 64)
    assert grid.angles[0] == -1.0 and grid.angles[-1] < 1.0
    np.testing.assert_allclose(grid.steering, steering_matrix(grid.angles, 8))


@pytest.mark.parametrize("M", [8, 16, 64])
def test_grid_steering_columns_are_steering_matrix_columns_bit_for_bit(M):
    # The greedy engine takes each selected column from grid.steering, and
    # every other caller builds steering vectors with steering_matrix: the
    # two must agree to the last bit at every grid point.
    grid = make_grid(2048, M)
    for p in range(grid.N):
        np.testing.assert_array_equal(
            grid.steering[:, p], steering_matrix(grid.angles[p : p + 1], M)[:, 0]
        )


def test_make_grid_validation():
    with pytest.raises(ValueError, match=">= 2\\*M"):
        make_grid(8, 8)
    with pytest.raises(ValueError, match="even"):
        make_grid(33, 8)


def test_make_grid_is_cached_and_read_only():
    grid = make_grid(128, 8)
    assert make_grid(128, 8) is grid
    assert make_grid(256, 8) is not grid
    for arr in (grid.angles, grid.steering):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


# ---------------------------------------------------------------- evaluators


def brute_colnorms(A, grid):
    """Per-candidate loop oracle for ||A^H a(u)||^2."""
    out = np.empty(grid.N)
    for p in range(grid.N):
        a = steering_matrix([grid.angles[p]], grid.M)[:, 0]
        out[p] = np.sum(np.abs(A.conj().T @ a) ** 2)
    return out


@pytest.mark.parametrize("seed", range(8))
def test_direct_evaluator_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    M = int(rng.integers(2, 12))
    r = int(rng.integers(1, M + 1))
    grid = make_grid(4 * M, M)
    A = random_complex(rng, M, r)
    np.testing.assert_allclose(
        colnorms_sq(A, grid, "direct"), brute_colnorms(A, grid), rtol=1e-10
    )


@pytest.mark.parametrize("seed", range(8))
def test_fft_evaluator_matches_brute_force(seed):
    # Same draws as the direct test above; N = 4M is a split of length
    # L = M, and odd M exercise an odd transform length.
    rng = np.random.default_rng(seed)
    M = int(rng.integers(2, 12))
    r = int(rng.integers(1, M + 1))
    grid = make_grid(4 * M, M)
    A = random_complex(rng, M, r)
    np.testing.assert_allclose(
        colnorms_sq(A, grid, "fft"), brute_colnorms(A, grid), rtol=1e-10
    )


@pytest.mark.parametrize("seed", range(10))
def test_fft_matches_direct_pointwise_and_argmax(seed):
    rng = np.random.default_rng(seed)
    M = int(rng.integers(2, 33))
    r = int(rng.integers(1, M + 1))
    N = 2 ** int(rng.integers(math.ceil(math.log2(2 * M)), 12))
    grid = make_grid(N, M)
    A = random_complex(rng, M, r)
    fast = colnorms_sq(A, grid, "fft")
    slow = colnorms_sq(A, grid, "direct")
    scale = slow.max()
    np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-8 * scale)
    assert np.argmax(fast) == np.argmax(slow)


def test_fft_handles_wide_operands():
    # More columns than rows (e.g. a full covariance square root).
    rng = np.random.default_rng(5)
    grid = make_grid(128, 8)
    A = random_complex(rng, 8, 8)
    np.testing.assert_allclose(
        colnorms_sq(A, grid, "fft"),
        colnorms_sq(A, grid, "direct"),
        rtol=1e-9,
    )


def test_colnorms_dispatch_and_unknown_evaluator():
    # Column norms are the squared columns of the grid correlations on both
    # evaluators.
    rng = np.random.default_rng(2)
    grid = make_grid(32, 4)
    A = random_complex(rng, 4, 2)
    for evaluator in ("fft", "direct"):
        Z = grid_correlations(A, grid, evaluator)
        np.testing.assert_array_equal(
            colnorms_sq(A, grid, evaluator), fastgrid.grid_norms_sq(Z)
        )
    with pytest.raises(ValueError, match="evaluator"):
        colnorms_sq(A, grid, "clever")


def test_single_steering_column_concentrates_power():
    # ||a(u0)^H a(u)||^2 peaks at u0 with value M^2 and vanishes at angles
    # an exact multiple of 2/M away.
    M, N = 16, 256
    grid = make_grid(N, M)
    p0 = 96
    A = steering_matrix([grid.angles[p0]], M)
    vals = colnorms_sq(A, grid, "fft")
    assert np.argmax(vals) == p0
    np.testing.assert_allclose(vals[p0], M * M, rtol=1e-12)
    orth = p0 + N // M  # one full beamwidth away
    np.testing.assert_allclose(vals[orth], 0.0, atol=1e-9)


@pytest.mark.parametrize("M", [8, 6])  # 6 does not divide N: a length-8 split
def test_grid_correlations_match_brute_force(M):
    # Column p holds A^H a(u_p) in angle order on both evaluators; its squared
    # norm is the column-norm objective.
    rng = np.random.default_rng(3)
    grid = make_grid(64, M)
    A = random_complex(rng, M, 3)
    brute = np.stack([A.conj().T @ steering_matrix([u], M)[:, 0] for u in grid.angles])
    for evaluator in ("fft", "direct"):
        Z = grid_correlations(A, grid, evaluator)
        assert Z.shape == (3, 64) and Z.flags.c_contiguous
        np.testing.assert_allclose(Z.T, brute, rtol=0, atol=1e-12 * np.abs(brute).max())
        np.testing.assert_allclose(
            np.sum(np.abs(Z) ** 2, axis=0), brute_colnorms(A, grid), rtol=1e-12
        )
    with pytest.raises(ValueError, match="evaluator"):
        grid_correlations(A, grid, "clever")


@pytest.mark.parametrize("evaluator", ["fft", "direct"])
@pytest.mark.parametrize("r", [1, 5, 16])
def test_grid_correlations_are_operand_major(r, evaluator):
    # r x N, C-contiguous: each operand column's grid correlations are one
    # contiguous row, the layout the greedy engine's rank-one update needs.
    grid = make_grid(64, 8)
    A = random_complex(np.random.default_rng(r), 8, r)
    Z = grid_correlations(A, grid, evaluator)
    assert Z.shape == (r, 64) and Z.flags.c_contiguous
    for j in range(r):
        np.testing.assert_allclose(
            Z[j], grid_correlations(A[:, j : j + 1], grid, evaluator)[0], rtol=0, atol=1e-12
        )


@pytest.mark.parametrize("evaluator", ["fft", "direct"])
def test_zero_width_operand_scores_zero(evaluator):
    grid = make_grid(64, 8)
    A = np.empty((8, 0), dtype=complex)
    assert grid_correlations(A, grid, evaluator).shape == (0, 64)
    np.testing.assert_array_equal(colnorms_sq(A, grid, evaluator), np.zeros(64))


# ---------------------------------------------------------------- quadratic form


def brute_quadform(H, grid):
    """Per-candidate loop oracle for a(u)^H H a(u)."""
    out = np.empty(grid.N)
    for p in range(grid.N):
        a = steering_matrix([grid.angles[p]], grid.M)[:, 0]
        out[p] = np.real(a.conj() @ H @ a)
    return out


@pytest.mark.parametrize("seed", range(8))
def test_quadform_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    M = int(rng.integers(1, 24))
    N = 2 ** int(rng.integers(math.ceil(math.log2(max(2 * M, 4))), 11))
    grid = make_grid(N, M)
    A = random_complex(rng, M, int(rng.integers(1, M + 1)))
    H = A @ A.conj().T
    vals = quadform_fft(H, grid)
    ref = brute_quadform(H, grid)
    np.testing.assert_allclose(vals, ref, rtol=0, atol=1e-10 * ref.max())
    assert np.argmax(vals) == np.argmax(ref)


def test_quadform_of_projector_matches_its_column_norms():
    # An orthogonal projector is Hermitian idempotent, so a^H Pc a equals
    # ||Pc a||^2 -- the ratio-form denominator identity.
    rng = np.random.default_rng(11)
    M, N = 16, 512
    grid = make_grid(N, M)
    sel = grid.angles[[37, 201, 455]]
    _, Pc = projectors(steering_matrix(sel, M))
    vals = quadform_fft(Pc, grid)
    ref = colnorms_sq(Pc, grid, "direct")
    np.testing.assert_allclose(vals, ref, rtol=0, atol=1e-10 * ref.max())
    assert np.all(vals >= 0.0)
    # Selected angles land within round-off of zero, far below the ratio
    # masking threshold, and never negative.
    assert max(vals[37], vals[201], vals[455]) < fastgrid.MASK_RTOL * M


def test_quadform_rank_one_steering_peak():
    # H = a(u0) a(u0)^H gives the squared beampattern |a(u0)^H a(u)|^2,
    # peaking at u0 with value M^2 in ascending-angle order.
    M, N = 12, 128
    grid = make_grid(N, M)
    p0 = 83
    a0 = steering_matrix([grid.angles[p0]], M)[:, 0]
    vals = quadform_fft(np.outer(a0, a0.conj()), grid)
    assert np.argmax(vals) == p0
    np.testing.assert_allclose(vals[p0], M * M, rtol=1e-12)


@pytest.mark.parametrize("M", [1, 2, 16, 64])
def test_diag_sums_match_two_bincounts(M):
    # The one interleaved bincount accumulates each part of each diagonal
    # in the same order as separate real and imaginary bincounts.
    H = random_complex(np.random.default_rng(M), M, M)
    rng_m = np.arange(M)
    idx = (rng_m[None, :] - rng_m[:, None] + M - 1).ravel()
    re = np.bincount(idx, weights=H.ravel().real, minlength=2 * M - 1)
    im = np.bincount(idx, weights=H.ravel().imag, minlength=2 * M - 1)
    np.testing.assert_array_equal(fastgrid._diag_sums(H), re[M - 1 :] + 1j * im[M - 1 :])


# ---------------------------------------------------------------- objectives


@pytest.mark.parametrize("r", [1, 3, 15])
def test_fft_norm_form_is_one_quadratic_form(r):
    # On the half-wavelength grid the norm form is the quadratic form of the
    # operand's Gram, whatever its width, and agrees with the direct
    # evaluator to criterion 5's tolerance.
    rng = np.random.default_rng(3)
    M = 16
    grid = make_grid(256, M)
    A = random_complex(rng, M, r)
    vals = objective_values(A, grid, "norm")
    np.testing.assert_array_equal(vals, quadform_fft(A @ A.conj().T, grid))
    ref = colnorms_sq(A, grid, "direct")
    np.testing.assert_allclose(vals, ref, rtol=0, atol=1e-8 * ref.max())


def test_norm_form_off_the_fft_path_is_colnorms_sq():
    rng = np.random.default_rng(3)
    A = random_complex(rng, 8, 3)
    grid = make_grid(64, 8)
    np.testing.assert_array_equal(
        objective_values(A, grid, "norm", "direct"), colnorms_sq(A, grid, "direct")
    )


def test_reciprocal_form_saturates_vanishing_denominator():
    # Build a noise-subspace operand exactly orthogonal to one grid angle:
    # the reciprocal there must saturate rather than overflow.
    M, N = 8, 64
    grid = make_grid(N, M)
    p0 = 20
    a = steering_matrix([grid.angles[p0]], M)[:, 0]
    _, Pc = projectors(a.reshape(M, 1))
    _, V = linalg.hermitian_evd(Pc)
    G = V[:, : M - 1]  # orthonormal basis of a's complement
    vals = objective_values(G, grid, "reciprocal")
    assert vals[p0] == SAT_VALUE
    assert np.argmax(vals) == p0
    finite = np.delete(vals, p0)
    assert np.all(finite > 0) and np.all(finite < SAT_VALUE)
    # Reciprocal really is 1/norm away from saturation.
    norms = colnorms_sq(G, grid, "direct")
    np.testing.assert_allclose(finite, 1.0 / np.delete(norms, p0), rtol=1e-8)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_reciprocal_form_saturation_is_scale_invariant(scale):
    # The near-null refinement threshold tracks the spectrum's own maximum,
    # so saturation decisions match the direct evaluator at any amplitude.
    M, N = 8, 64
    grid = make_grid(N, M)
    p0 = 20
    a = steering_matrix([grid.angles[p0]], M)[:, 0]
    _, Pc = projectors(a.reshape(M, 1))
    _, V = linalg.hermitian_evd(Pc)
    G = scale * V[:, : M - 1]
    fast = objective_values(G, grid, "reciprocal")
    slow = objective_values(G, grid, "reciprocal", "direct")
    np.testing.assert_array_equal(fast == SAT_VALUE, slow == SAT_VALUE)
    assert fast[p0] == SAT_VALUE
    ok = fast != SAT_VALUE
    np.testing.assert_allclose(fast[ok], slow[ok], rtol=1e-8)


def ratio_form(num, Pc, grid, form):
    """``form`` of ``||num^H a||^2`` over ``||Pc a||^2``, as the greedy
    engine applies it, masking below MASK_RTOL * M."""
    denom = colnorms_sq(Pc, grid, "direct")
    masked = denom < fastgrid.MASK_RTOL * grid.M
    return apply_form(colnorms_sq(num, grid, "direct"), form, denom, masked)


def test_ratio_form_masks_selected_angles():
    M, N = 8, 64
    grid = make_grid(N, M)
    p_sel = 12
    a_sel = steering_matrix([grid.angles[p_sel]], M)
    _, Pc = projectors(a_sel)
    rng = np.random.default_rng(4)
    num = Pc @ random_complex(rng, M, 3)
    vals = ratio_form(num, Pc, grid, "ratio")
    assert vals[p_sel] == -np.inf
    unmasked = vals[np.isfinite(vals)]
    assert unmasked.size > 0 and np.all(unmasked >= 0)
    # Hand-check one unmasked ratio.
    p = 40
    a = steering_matrix([grid.angles[p]], M)[:, 0]
    expect = np.sum(np.abs(num.conj().T @ a) ** 2) / np.sum(np.abs(Pc @ a) ** 2)
    np.testing.assert_allclose(vals[p], expect, rtol=1e-9)


def test_complement_ratio_form():
    M, N = 8, 64
    grid = make_grid(N, M)
    rng = np.random.default_rng(6)
    p_sel = 50
    a_sel = steering_matrix([grid.angles[p_sel]], M)
    _, Pc = projectors(a_sel)
    num = Pc @ random_complex(rng, M, 2)
    plain = ratio_form(num, Pc, grid, "ratio")
    comp = ratio_form(num, Pc, grid, "complement-ratio")
    mask = np.isfinite(plain)
    np.testing.assert_array_equal(np.isfinite(comp), mask)
    np.testing.assert_allclose(comp[mask], 1.0 - plain[mask], rtol=1e-9)
    assert comp[p_sel] == -np.inf


def test_unknown_form_rejected():
    grid = make_grid(32, 4)
    A = random_complex(np.random.default_rng(0), 4, 2)
    # The ratio forms score the greedy engine's state (apply_form); the
    # spectral objective_values takes only "norm" and "reciprocal".
    for form in ("ols", "ratio"):
        with pytest.raises(ValueError, match="unknown objective form"):
            objective_values(A, grid, form)
    with pytest.raises(ValueError, match="not a norm or ratio form"):
        apply_form(np.ones(grid.N), "reciprocal", np.ones(grid.N), np.zeros(grid.N, bool))
