"""Covariance partitioning, pseudospectra, and peak selection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import random_complex, random_covariance
from doalab.fastgrid import SAT_VALUE, make_grid
from doalab.linalg import evd_call_count
from doalab.methods import METHOD_IDS, estimate_method, pseudospectrum
from doalab.scenario import (
    GroundTruth,
    ScenarioConfig,
    steering_matrix,
    synthesize_observation,
    trial_rng,
)
from doalab.subspace import (
    SubspaceDecomposition,
    partition,
    sample_covariance,
    select_peak_indices,
)


def random_decomposition(rng, M=None, K=None):
    M = M or int(rng.integers(3, 17))
    K = K or int(rng.integers(1, M))
    R = random_covariance(rng, M)
    return partition(R, K), R


# ---------------------------------------------------------------- covariance


def test_sample_covariance_oracle():
    rng = np.random.default_rng(0)
    Y = random_complex(rng, 5, 40)
    R = sample_covariance(Y)
    np.testing.assert_allclose(R, Y @ Y.conj().T / 40, atol=1e-14)
    np.testing.assert_allclose(R, R.conj().T, atol=0)  # exactly Hermitian
    assert np.all(np.linalg.eigvalsh(R) > -1e-12)


def test_sample_covariance_rejects_empty():
    with pytest.raises(ValueError):
        sample_covariance(np.zeros((4, 0)))
    with pytest.raises(ValueError):
        sample_covariance(np.zeros(4))


# ---------------------------------------------------------------- partition


@pytest.mark.parametrize("seed", range(8))
def test_partition_splits_eigenpairs(seed):
    rng = np.random.default_rng(seed)
    dec, R = random_decomposition(rng)
    M, K = dec.M, dec.K
    assert dec.S.shape == (M, K) and dec.G.shape == (M, M - K)
    # Blocks are orthonormal and mutually orthogonal.
    np.testing.assert_allclose(dec.S.conj().T @ dec.S, np.eye(K), atol=1e-12)
    np.testing.assert_allclose(
        dec.G.conj().T @ dec.G, np.eye(M - K), atol=1e-12
    )
    np.testing.assert_allclose(dec.S.conj().T @ dec.G, 0, atol=1e-12)
    # Eigenvalue split is the descending order split.
    full = np.concatenate([dec.lambda_s, dec.lambda_n])
    assert np.all(np.diff(full) <= 1e-12)
    assert dec.lambda_s.min() >= dec.lambda_n.max() - 1e-12
    # Square root reconstructs R and its columns follow the same split.
    np.testing.assert_allclose(
        dec.sqrt_R @ dec.sqrt_R.conj().T, R, atol=1e-10 * np.linalg.norm(R)
    )
    np.testing.assert_array_equal(dec.sqrt_R[:, :K], dec.weighted_signal)
    np.testing.assert_array_equal(dec.sqrt_R[:, K:], dec.weighted_noise)


def test_partition_rejects_bad_K():
    R = np.eye(4, dtype=complex)
    for K in (0, 4, 5):
        with pytest.raises(ValueError):
            partition(R, K)


@pytest.mark.parametrize("method", METHOD_IDS)
def test_estimate_method_rejects_indefinite_covariance(method):
    # Every method reads its operand off partition(), so none may return
    # angles computed from square roots of negative eigenvalues.
    Q, _ = np.linalg.qr(random_complex(np.random.default_rng(5), 6, 6))
    R = (Q * [3.0, 2.0, 1.0, 0.5, 0.2, -1.0]) @ Q.conj().T
    R = 0.5 * (R + R.conj().T)
    with pytest.raises(ValueError, match="positive semidefinite"):
        estimate_method(method, R, 2, make_grid(64, 6))


@pytest.mark.parametrize("evaluator", ["fft", "direct"])
@pytest.mark.parametrize("method", METHOD_IDS)
def test_estimate_method_with_zero_order_returns_no_angle(method, evaluator):
    # The documented K = 0 path: no model order, no estimate, no EVD.
    R = random_covariance(np.random.default_rng(6), 6)
    before = evd_call_count()
    est = estimate_method(method, R, 0, make_grid(64, 6), evaluator)
    assert est.shape == (0,) and est.dtype == np.float64
    assert evd_call_count() == before


def test_weighted_operands_scale_columns():
    rng = np.random.default_rng(1)
    dec, _ = random_decomposition(rng, M=6, K=2)
    np.testing.assert_array_equal(dec.weighted_signal, dec.S * np.sqrt(dec.lambda_s))
    np.testing.assert_array_equal(dec.weighted_noise, dec.G * np.sqrt(dec.lambda_n))


# ---------------------------------------------------------------- spectra


@pytest.mark.parametrize("seed", range(8))
def test_signal_noise_complementarity(seed):
    # ||S^H a||^2 + ||G^H a||^2 = M at every grid point: the eigenvector
    # basis is complete and steering vectors have norm sqrt(M).
    rng = np.random.default_rng(seed)
    dec, _ = random_decomposition(rng)
    grid = make_grid(8 * dec.M, dec.M)
    sig = pseudospectrum(dec, grid, "music-signal").values
    noise_norms = 1.0 / pseudospectrum(dec, grid, "music-noise").values
    np.testing.assert_allclose(sig + noise_norms, dec.M, rtol=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_music_signal_and_noise_share_peak_sets(seed):
    rng = np.random.default_rng(seed)
    dec, _ = random_decomposition(rng)
    grid = make_grid(8 * dec.M, dec.M)
    k = int(rng.integers(1, dec.K + 1))
    sig = select_peak_indices(pseudospectrum(dec, grid, "music-signal").values, k)
    noi = select_peak_indices(pseudospectrum(dec, grid, "music-noise").values, k)
    assert set(sig.tolist()) == set(noi.tolist())


def test_weighted_signal_with_unit_eigenvalues_is_plain_signal():
    rng = np.random.default_rng(2)
    dec, _ = random_decomposition(rng, M=8, K=3)
    flat = SubspaceDecomposition(
        eigenvalues=np.concatenate([np.ones(dec.K), dec.lambda_n]),
        eigenvectors=dec.eigenvectors,
        K=dec.K,
    )
    grid = make_grid(64, 8)
    np.testing.assert_allclose(
        pseudospectrum(flat, grid, "wmusic-signal").values,
        pseudospectrum(dec, grid, "music-signal").values,
        atol=1e-12 * dec.M,
    )


def test_pseudospectrum_rejects_unknown_variant():
    rng = np.random.default_rng(3)
    dec, _ = random_decomposition(rng, M=6, K=2)
    for variant in ("music-psycho", "omp"):
        with pytest.raises(ValueError, match="variant"):
            pseudospectrum(dec, make_grid(48, 6), variant)


# ---------------------------------------------------------------- peaks


def test_select_peaks_hand_cases():
    v = np.array([0.0, 3.0, 1.0, 5.0, 2.0, 2.0, 4.0])
    # Strict local maxima: index 1 (3>0,3>1), index 3 (5>1,5>2), index 6
    # (4>2, and 4>0 across the wrap).  The plateau at 4,5 produces no peak.
    np.testing.assert_array_equal(select_peak_indices(v, 3), [3, 6, 1])
    np.testing.assert_array_equal(select_peak_indices(v, 2), [3, 6])
    np.testing.assert_array_equal(select_peak_indices(v, 1), [3])


def test_select_peaks_wrap_around_the_grid_ends():
    # The u-grid is a circle: index 0 (3.0) beats index 1 but not its other
    # neighbor, index 4 (4.0), so it is a skirt point, not a peak, and the
    # interior peak at index 2 outranks it.
    v = np.array([3.0, 1.0, 2.0, 0.0, 4.0])
    np.testing.assert_array_equal(select_peak_indices(v, 2), [4, 2])
    np.testing.assert_array_equal(select_peak_indices(v[::-1], 2), [0, 2])


def test_select_peaks_fills_from_non_peaks():
    v = np.array([5.0, 4.0, 3.0, 2.0, 1.0])  # monotone: single endpoint peak
    # Only index 0 is a strict maximum; the quota is filled with the largest
    # remaining values, and the output stays (value desc, index asc).
    np.testing.assert_array_equal(select_peak_indices(v, 3), [0, 1, 2])


def test_select_peaks_tie_breaks_toward_lower_index():
    v = np.array([0.0, 7.0, 0.0, 7.0, 0.0])
    np.testing.assert_array_equal(select_peak_indices(v, 2), [1, 3])
    v2 = np.array([0.0, 7.0, 0.0, 9.0, 0.0])
    np.testing.assert_array_equal(select_peak_indices(v2, 2), [3, 1])


def test_select_peaks_edge_sizes():
    assert select_peak_indices(np.array([2.0]), 1).tolist() == [0]
    assert select_peak_indices(np.array([1.0, 2.0]), 2).tolist() == [1, 0]
    assert select_peak_indices(np.array([1.0, 2.0]), 0).size == 0


@given(
    hnp.arrays(
        np.float64,
        st.integers(3, 60),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    ),
    st.integers(1, 8),
)
@settings(max_examples=120, deadline=None)
def test_select_peaks_properties(values, K):
    K = min(K, values.size)
    idx = select_peak_indices(values, K)
    # Right count, unique, in range.
    assert idx.size == K
    assert len(set(idx.tolist())) == K
    assert np.all((idx >= 0) & (idx < values.size))
    # Ordered by descending value, ties toward lower index.
    vals = values[idx]
    for i in range(K - 1):
        assert vals[i] > vals[i + 1] or (
            vals[i] == vals[i + 1] and idx[i] < idx[i + 1]
        )
    # With all-distinct values the global argmax is always selected first.
    if len(set(values.tolist())) == values.size:
        assert idx[0] == np.argmax(values)


# ---------------------------------------------------------------- estimates


def test_single_target_signal_vector_parallels_steering():
    # Noiseless single-target covariance is rank one; its dominant
    # eigenvector must align with the steering direction.
    M = 12
    a = steering_matrix([0.3], M)[:, 0]
    R = np.outer(a, a.conj()) * 2.5
    dec = partition(0.5 * (R + R.conj().T), 1)
    overlap = abs(dec.S[:, 0].conj() @ a) / math.sqrt(M)
    assert overlap == pytest.approx(1.0, abs=1e-9)


def test_noiseless_single_target_exact_recovery():
    cfg = ScenarioConfig(
        targets=1,
        antennas=8,
        subcarriers=32,
        symbols=4,
        snr_db=math.inf,
        grid_points=256,
        seed=3,
    )
    grid = make_grid(cfg.grid_points, cfg.antennas)
    p0 = 77
    truth = GroundTruth(
        doas=np.array([grid.angles[p0]]),
        ranges=np.array([2e-7]),
        dopplers=np.array([0.0]),
        amplitudes=np.array([1.0 + 0.5j]),
        noise_variance=0.0,
    )
    obs = synthesize_observation(truth, cfg, trial_rng(cfg.seed, 0))
    for variant in ("music-signal", "music-noise"):
        est = estimate_method(variant, sample_covariance(obs.Y), 1, grid)
        np.testing.assert_allclose(est, truth.doas, atol=1e-12)


def test_noiseless_nulls_saturate_noise_spectrum():
    M = 8
    grid = make_grid(256, M)
    p0 = 100
    a = steering_matrix([grid.angles[p0]], M)[:, 0]
    R = np.outer(a, a.conj())
    dec = partition(0.5 * (R + R.conj().T), 1)
    vals = pseudospectrum(dec, grid, "music-noise").values
    assert vals[p0] == SAT_VALUE
    assert np.argmax(vals) == p0
