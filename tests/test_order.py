"""Model-order selection: eigenvalue AIC and the hybrid greedy extension."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doalab import order
from doalab.fastgrid import make_grid
from doalab.linalg import evd_call_count, hermitian_evd
from doalab.order import (
    aic_rank,
    hybrid_order,
    model_orders,
    penalized_residual_criterion,
)
from doalab.scenario import (
    GroundTruth,
    ScenarioConfig,
    draw_targets,
    synthesize_observation,
    trial_rng,
)
from doalab.subspace import SubspaceDecomposition, sample_covariance


def aic_curve_oracle(w, L):
    """Direct, independent evaluation of the AIC curve."""
    w = np.maximum(np.asarray(w, dtype=float), 1e-300)
    M = w.size
    out = []
    for k in range(M):
        tail = w[k:]
        g = math.exp(np.mean(np.log(tail)))
        a = float(np.mean(tail))
        out.append(-2.0 * L * (M - k) * math.log(g / a) + 2.0 * k * (2 * M - k))
    return np.array(out)


# ---------------------------------------------------------------- aic


def test_aic_flat_spectrum_picks_zero():
    est = aic_rank(np.ones(8) * 3.7, snapshots=500)
    assert est.k_hat == 0
    assert est.criterion_curve.shape == (8,)
    # Flat spectrum: data term vanishes at k=0 and the penalty grows.
    assert est.criterion_curve[0] == pytest.approx(0.0, abs=1e-9)


def test_aic_two_strong_eigenvalues():
    w = np.array([100.0, 100.0, 1.0, 1.0, 1.0, 1.0])
    est = aic_rank(w, snapshots=1000)
    assert est.k_hat == 2
    np.testing.assert_allclose(est.criterion_curve, aic_curve_oracle(w, 1000), rtol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_aic_matches_direct_oracle(seed):
    rng = np.random.default_rng(seed)
    M = int(rng.integers(3, 20))
    w = np.sort(rng.uniform(0.01, 50.0, M))[::-1]
    L = int(rng.integers(1, 5000))
    est = aic_rank(w, L)
    oracle = aic_curve_oracle(w, L)
    np.testing.assert_allclose(est.criterion_curve, oracle, rtol=1e-12)
    assert est.k_hat == int(np.argmin(oracle))


@given(
    st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=16),
    st.floats(1e-6, 1e6),
    st.integers(1, 100_000),
)
@settings(max_examples=80, deadline=None)
def test_aic_argmin_is_scale_invariant(values, c, L):
    w = np.sort(np.array(values))[::-1]
    a = aic_rank(w, L)
    b = aic_rank(c * w, L)
    assert a.k_hat == b.k_hat
    scale = 1.0 + np.max(np.abs(a.criterion_curve))
    np.testing.assert_allclose(
        a.criterion_curve, b.criterion_curve, rtol=0, atol=1e-6 * scale
    )


def test_aic_handles_rank_deficient_spectra():
    # Exact zeros occur for noiseless covariances; the floor keeps the curve
    # finite and the strong/zero split detectable.
    w = np.array([50.0, 20.0, 0.0, 0.0, 0.0, 0.0])
    est = aic_rank(w, snapshots=100)
    assert np.all(np.isfinite(est.criterion_curve))
    assert est.k_hat == 2


def test_aic_ties_break_toward_smaller_order():
    est = aic_rank(np.ones(5), snapshots=10)
    # All-equal eigenvalues zero the data term everywhere; the penalty is
    # strictly increasing, so the tie-break question only arises at k=0.
    assert est.k_hat == 0


def test_aic_input_validation():
    with pytest.raises(ValueError):
        aic_rank(np.array([1.0]), 10)
    with pytest.raises(ValueError):
        aic_rank(np.array([1.0, -0.5]), 10)
    with pytest.raises(ValueError):
        aic_rank(np.array([1.0, 0.5]), 0)


def test_aic_recovers_order_from_synthetic_covariance():
    cfg = ScenarioConfig(
        targets=3,
        antennas=10,
        subcarriers=128,
        symbols=8,
        snr_db=30.0,
        grid_points=256,
        seed=4,
    )
    rng = trial_rng(cfg.seed, 0)
    truth = draw_targets(cfg, rng)
    obs = synthesize_observation(truth, cfg, rng)
    eigenvalues, _ = hermitian_evd(sample_covariance(obs.Y))
    est = aic_rank(eigenvalues, cfg.snapshots)
    assert est.k_hat == cfg.targets


# ---------------------------------------------------------------- hybrid


def hybrid_inputs(seed=0, K=2, M=8, snr_db=math.inf, on_grid=True, N=256):
    cfg = ScenarioConfig(
        targets=K,
        antennas=M,
        subcarriers=32,
        symbols=4,
        snr_db=snr_db,
        grid_points=N,
        seed=seed,
    )
    grid = make_grid(N, M)
    rng = trial_rng(cfg.seed, 0)
    if on_grid:
        step = N // M
        idx = step + step * np.arange(K) * 2
        truth = GroundTruth(
            doas=grid.angles[idx],
            # 4e-7 s delay gaps = full cycles across the 32 subcarriers,
            # so coefficient rows are exactly uncorrelated.
            ranges=1e-7 + 4e-7 * np.arange(K),
            dopplers=np.zeros(K),
            amplitudes=np.exp(1j * np.linspace(0.2, 1.0, K)),
            noise_variance=0.0,
        )
    else:
        truth = draw_targets(cfg, rng)
    obs = synthesize_observation(truth, cfg, rng)
    R = sample_covariance(obs.Y)
    evd = SubspaceDecomposition(*hermitian_evd(R), K=0)
    return cfg, grid, R, evd.sqrt_R, evd


def test_hybrid_noiseless_stops_at_true_order():
    K = 2
    cfg, grid, R, sqrt_R, evd = hybrid_inputs(K=K)
    # Start below the true order; the residual criterion must climb to K
    # (each accepted pick removes a full target) and then stop, because a
    # third pick cannot shrink an already-floored residual while the
    # penalty keeps growing.
    est = hybrid_order(sqrt_R, grid, k_floor=1, snapshots=cfg.snapshots)
    assert est.k_hat == K
    # Orders past the stopping point were never visited.
    assert np.all(np.isnan(est.criterion_curve[K + 2 :]))


def test_hybrid_never_returns_less_than_base():
    cfg, grid, R, sqrt_R, evd = hybrid_inputs(K=2, snr_db=20.0, on_grid=False)
    for forced in (0, 1, 3, 5):
        est = hybrid_order(sqrt_R, grid, k_floor=forced, snapshots=cfg.snapshots)
        assert est.k_hat >= forced


def test_hybrid_search_stops_at_m_minus_1(monkeypatch):
    cfg, grid, R, sqrt_R, evd = hybrid_inputs(K=2, snr_db=25.0, on_grid=False)
    M = sqrt_R.shape[0]
    # A floor at M-1 leaves no step to take: only its own order is scored.
    est = hybrid_order(sqrt_R, grid, k_floor=M - 1, snapshots=cfg.snapshots)
    assert est.k_hat == M - 1
    assert np.flatnonzero(~np.isnan(est.criterion_curve)).tolist() == [M - 1]
    # A criterion that always improves runs the search as far as it goes:
    # to M-1, never to M.
    monkeypatch.setattr(order, "penalized_residual_criterion", lambda k, e, M, L: -float(k))
    for floor in (0, M - 1):
        est = hybrid_order(sqrt_R, grid, k_floor=floor, snapshots=cfg.snapshots)
        assert est.k_hat == M - 1
        assert est.criterion_curve.shape == (M,)
        assert not np.any(np.isnan(est.criterion_curve[floor:]))


def test_hybrid_residual_fraction_is_non_increasing(monkeypatch):
    # The criterion's data term is driven by the residual energy fraction,
    # which can only shrink as the projection span grows.
    cfg, grid, R, sqrt_R, evd = hybrid_inputs(K=3, M=10, snr_db=15.0, on_grid=False)
    fractions = []

    def spy(k, eps_k, M, snapshots):
        fractions.append(eps_k)
        return penalized_residual_criterion(k, eps_k, M, snapshots)

    monkeypatch.setattr(order, "penalized_residual_criterion", spy)
    hybrid_order(sqrt_R, grid, k_floor=0, snapshots=cfg.snapshots)
    assert len(fractions) >= 2
    assert np.all(np.diff(fractions) <= 1e-12)
    assert np.all((np.array(fractions) >= 1e-12) & (np.array(fractions) <= 1.0 + 1e-12))


def test_hybrid_custom_criterion_is_pluggable(monkeypatch):
    cfg, grid, R, sqrt_R, evd = hybrid_inputs(K=2, snr_db=20.0, on_grid=False)
    # A criterion that always improves forces the search to M-1; one that
    # never improves pins the result at the floor.
    monkeypatch.setattr(order, "penalized_residual_criterion", lambda k, e, M, L: -float(k))
    always = hybrid_order(sqrt_R, grid, k_floor=1, snapshots=cfg.snapshots)
    monkeypatch.setattr(order, "penalized_residual_criterion", lambda k, e, M, L: float(k))
    never = hybrid_order(sqrt_R, grid, k_floor=1, snapshots=cfg.snapshots)
    assert always.k_hat == 7
    assert never.k_hat == 1


def test_hybrid_argument_validation():
    cfg, grid, R, sqrt_R, evd = hybrid_inputs(K=2)  # M = 8
    for k_floor in (-1, 8, 9):
        with pytest.raises(ValueError, match=f"need 0 <= k_floor < M, got k_floor={k_floor}, M=8"):
            hybrid_order(sqrt_R, grid, k_floor=k_floor, snapshots=128)


@pytest.mark.parametrize("evaluator", ["fft", "direct"])
def test_hybrid_on_a_zero_covariance_stops_at_its_floor(evaluator):
    # A zero trace leaves no residual ratio to take: it sits at its floor,
    # so every pick past k_floor only adds penalty.
    grid = make_grid(64, 8)
    zeros = np.zeros((8, 8), dtype=complex)
    for k_floor in (0, 3, 7):
        assert hybrid_order(zeros, grid, k_floor, 100, evaluator).k_hat == k_floor
    assert model_orders(zeros, ("hybrid",), 3, 100, grid, evaluator)["hybrid"] == 0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the penalty is too small against 2 L M ln(eps_k) to stop the search",
)
def test_hybrid_stops_below_max_k_on_a_noisy_scene():
    # K=8, M=16, Q=256, D=4 (L=1024) at 20 dB with the direct evaluator:
    # every one of trials 0-11 runs the hybrid search to max_k = M-1.
    cfg = ScenarioConfig(
        targets=8, antennas=16, subcarriers=256, symbols=4, snr_db=20.0, seed=1
    )
    M, L = cfg.antennas, cfg.snapshots
    grid = make_grid(cfg.grid_points, M)
    k_hats = []
    for t in range(12):
        rng = trial_rng(cfg.seed, t)
        obs = synthesize_observation(draw_targets(cfg, rng), cfg, rng)
        evd = SubspaceDecomposition(*hermitian_evd(sample_covariance(obs.Y)), K=0)
        base = aic_rank(evd.eigenvalues, L)
        est = hybrid_order(evd.sqrt_R, grid, base.k_hat, L, "direct")
        k_hats.append(est.k_hat)
    assert min(k_hats) < M - 1, k_hats


# ---------------------------------------------------------------- model_orders


def test_model_orders_decomposes_only_for_estimated_orders():
    cfg, grid, R, sqrt_R, evd = hybrid_inputs(K=2, snr_db=25.0, on_grid=False)
    before = evd_call_count()
    orders = model_orders(R, {"true-k"}, 5, cfg.snapshots, grid, "fft")
    assert evd_call_count() == before
    assert orders == {"true-k": 5}
    orders = model_orders(R, {"rank-aic", "hybrid"}, 5, cfg.snapshots, grid, "fft")
    assert evd_call_count() == before + 1
    base = aic_rank(evd.eigenvalues, cfg.snapshots)
    hybrid = hybrid_order(sqrt_R, grid, base.k_hat, cfg.snapshots, "fft")
    assert orders == {"rank-aic": base.k_hat, "hybrid": hybrid.k_hat}
