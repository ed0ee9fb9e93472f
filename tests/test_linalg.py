"""Linear-algebra kernel: eigendecomposition, square root, projectors."""

import numpy as np
import pytest

from conftest import random_complex, random_covariance
from doalab import linalg
from doalab.subspace import SubspaceDecomposition, partition
from reference_linalg import projectors, pseudoinverse

SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
def test_evd_reconstructs_input(seed):
    rng = np.random.default_rng(seed)
    M = int(rng.integers(2, 24))
    R = random_covariance(rng, M)
    w, V = linalg.hermitian_evd(R)
    rebuilt = (V * w) @ V.conj().T
    np.testing.assert_allclose(rebuilt, R, rtol=0, atol=1e-10 * np.linalg.norm(R))


@pytest.mark.parametrize("seed", SEEDS)
def test_evd_descending_orthonormal_trace(seed):
    rng = np.random.default_rng(seed)
    M = int(rng.integers(2, 24))
    R = random_covariance(rng, M)
    w, V = linalg.hermitian_evd(R)
    assert np.all(np.diff(w) <= 0)
    np.testing.assert_allclose(V.conj().T @ V, np.eye(M), atol=1e-12)
    # Eigenvalue sum equals the trace.
    np.testing.assert_allclose(w.sum(), np.trace(R).real, rtol=1e-10)


def test_evd_clamps_rounding_negatives():
    # Rank-1 PSD matrix: exact spectrum is (2, 0, 0); rounding may produce
    # tiny negative values, which must come out exactly zero.
    v = np.array([1.0, 1j, 0.0]) / np.sqrt(2)
    R = 2.0 * np.outer(v, v.conj())
    w, _ = linalg.hermitian_evd(R)
    assert np.all(w >= 0)
    np.testing.assert_allclose(w[0], 2.0, rtol=1e-12)
    np.testing.assert_allclose(w[1:], 0.0, atol=1e-12)


def test_evd_rejects_an_indefinite_matrix():
    # Each negative eigenvalue lies beyond the rounding clamp band
    # (PSD_CLAMP_RTOL of the largest): every caller takes square roots of the
    # eigenvalues, so the decomposition refuses the matrix.
    for R in (np.diag([1.0, -1.0]), np.diag([1.0, 0.5, -1e-9])):
        with pytest.raises(ValueError, match="positive semidefinite"):
            linalg.hermitian_evd(R.astype(complex))
    # All-negative spectrum: the clamp band, relative to max(w[0], 0), is empty.
    with pytest.raises(ValueError, match="positive semidefinite"):
        linalg.hermitian_evd(-np.eye(2, dtype=complex))


def test_evd_input_validation():
    with pytest.raises(ValueError, match="square"):
        linalg.hermitian_evd(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        linalg.hermitian_evd(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="Hermitian"):
        linalg.hermitian_evd(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_evd_accepts_noncontiguous_views():
    rng = np.random.default_rng(3)
    big = random_covariance(rng, 8)
    view = big[::2, ::2]  # Hermitian sub-sampling, non-contiguous
    view = 0.5 * (view + view.conj().T)
    w, _ = linalg.hermitian_evd(view)
    np.testing.assert_allclose(w.sum(), np.trace(view).real, rtol=1e-10)


def test_evd_counter_counts_calls():
    before = linalg.evd_call_count()
    R = np.eye(3, dtype=complex)
    linalg.hermitian_evd(R)
    linalg.hermitian_evd(R)
    assert linalg.evd_call_count() - before == 2


@pytest.mark.parametrize("seed", SEEDS)
def test_covariance_sqrt_reproduces_input(seed):
    rng = np.random.default_rng(seed)
    M = int(rng.integers(2, 24))
    R = random_covariance(rng, M, rank=max(1, M // 2))
    root = partition(R, 1).sqrt_R
    np.testing.assert_allclose(
        root @ root.conj().T, R, rtol=0, atol=1e-10 * np.linalg.norm(R)
    )


def test_covariance_sqrt_columns_are_scaled_eigenvectors():
    rng = np.random.default_rng(7)
    R = random_covariance(rng, 6)
    w, V = linalg.hermitian_evd(R)
    root = SubspaceDecomposition(w, V, K=2).sqrt_R
    np.testing.assert_array_equal(root, V * np.sqrt(w))


@pytest.mark.parametrize("seed", SEEDS)
def test_pseudoinverse_left_inverse(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(4, 20))
    cols = int(rng.integers(1, rows + 1))
    A = random_complex(rng, rows, cols)
    pinv = pseudoinverse(A)
    assert pinv.shape == (cols, rows)
    np.testing.assert_allclose(pinv @ A, np.eye(cols), atol=1e-9)
    np.testing.assert_allclose(pinv, np.linalg.pinv(A), atol=1e-8)


def test_pseudoinverse_guards():
    with pytest.raises(ValueError, match="rows >= cols"):
        pseudoinverse(np.zeros((2, 3), dtype=complex))
    dup = np.ones((4, 2), dtype=complex)  # duplicate columns: rank 1
    with pytest.raises(np.linalg.LinAlgError):
        pseudoinverse(dup)
    empty = pseudoinverse(np.zeros((4, 0), dtype=complex))
    assert empty.shape == (0, 4)


@pytest.mark.parametrize("seed", SEEDS)
def test_projector_algebra(seed):
    rng = np.random.default_rng(seed)
    M = int(rng.integers(3, 20))
    k = int(rng.integers(1, M))
    A = random_complex(rng, M, k)
    P, Pc = projectors(A)
    eye = np.eye(M)
    scale = np.linalg.norm(A)
    # Idempotent, Hermitian, complementary; the complement annihilates A.
    np.testing.assert_allclose(P @ P, P, atol=1e-10)
    np.testing.assert_allclose(Pc @ Pc, Pc, atol=1e-10)
    np.testing.assert_allclose(P, P.conj().T, atol=1e-12)
    np.testing.assert_allclose(Pc, Pc.conj().T, atol=1e-12)
    np.testing.assert_allclose(P + Pc, eye, atol=1e-12)
    assert np.linalg.norm(Pc @ A) <= 1e-9 * scale
    np.testing.assert_allclose(P @ A, A, atol=1e-9 * scale)


def test_projectors_empty_selection():
    P, Pc = projectors(np.zeros((5, 0), dtype=complex))
    np.testing.assert_array_equal(P, np.zeros((5, 5)))
    np.testing.assert_array_equal(Pc, np.eye(5))
