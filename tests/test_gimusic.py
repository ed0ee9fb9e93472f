"""Greedy iterative MUSIC: residual-subspace objectives, single EVD."""

import math

import numpy as np
import pytest

from doalab import greedy
from doalab.fastgrid import colnorms_sq, make_grid
from doalab.greedy import greedy_objective, greedy_step, greedy_update, initial_state
from doalab.linalg import evd_call_count
from doalab.methods import METHODS, estimate_method, pseudospectrum
from doalab.scenario import (
    GroundTruth,
    ScenarioConfig,
    draw_targets,
    steering_matrix,
    synthesize_observation,
    trial_rng,
)
from doalab.subspace import partition, sample_covariance
from reference_linalg import (
    complement_projector,
    estimate_with_evd_per_iter,
    projectors,
    residual,
)

GIMUSIC_METHODS = ("omp-imusic", "ols-imusic", "omp-iwmusic", "ols-iwmusic")


def scenario_dec(seed, M=8, K=3, snr_db=30.0, N=256):
    cfg = ScenarioConfig(
        targets=K,
        antennas=M,
        subcarriers=32,
        symbols=4,
        snr_db=snr_db,
        grid_points=N,
        seed=seed,
    )
    rng = trial_rng(cfg.seed, 0)
    truth = draw_targets(cfg, rng)
    obs = synthesize_observation(truth, cfg, rng)
    R = sample_covariance(obs.Y)
    return R, partition(R, K), make_grid(N, M), truth


def advance(state, form, steps):
    for _ in range(steps):
        greedy_step(state, form)
    return state


def on_operand(state, X):
    """A state on operand X with the selections of ``state``."""
    other = initial_state(X, state.grid, state.evaluator)
    for u in state.selected:
        greedy_update(other, u)
    return other


# ---------------------------------------------------------------- identities


def test_initial_objective_is_signal_pseudospectrum():
    # Before any selection the unweighted residual objective and the
    # signal-form pseudospectrum are the same function.
    _, dec, grid, _ = scenario_dec(seed=0)
    obj = greedy_objective(initial_state(dec.S, grid), "norm")
    music = pseudospectrum(dec, grid, "music-signal").values
    np.testing.assert_allclose(obj, music, atol=1e-12 * dec.M)


@pytest.mark.parametrize("seed", range(5))
def test_energy_split_identity(seed):
    # The square root factors into scaled signal + noise blocks, so the OMP
    # correlation energy splits exactly into the weighted residual-subspace
    # energies at every grid point and every iteration.
    R, dec, grid, _ = scenario_dec(seed=seed)
    state = initial_state(dec.S, grid)
    for _ in range(3):
        omp_energy = colnorms_sq(complement_projector(state) @ dec.sqrt_R, grid, "fft")
        sig = colnorms_sq(residual(state, dec.weighted_signal), grid, "fft")
        noi = colnorms_sq(residual(state, dec.weighted_noise), grid, "fft")
        np.testing.assert_allclose(
            sig + noi, omp_energy, rtol=0, atol=1e-9 * omp_energy.max()
        )
        state = advance(state, "ratio", 1)


@pytest.mark.parametrize("seed", range(6))
def test_signal_and_noise_ratio_forms_pick_same_candidate(seed):
    # ||(Pc S)^H a||^2/||Pc a||^2 and 1 - ||(Pc G)^H a||^2/||Pc a||^2 differ by
    # a reshuffling of the same orthonormal split, so their argmax agrees.
    rng = np.random.default_rng(seed)
    R, dec, grid, _ = scenario_dec(seed=seed, M=10, K=4)
    steps = int(rng.integers(0, 3))
    state = advance(initial_state(dec.S, grid), "ratio", steps)
    sig = greedy_objective(state, "ratio")
    noi = greedy_objective(on_operand(state, dec.G), "complement-ratio")
    assert int(np.argmax(sig)) == int(np.argmax(noi))
    # And the forms are complementary where defined: the residual signal and
    # noise energies partition ||Pc a||^2, so sig + (1 - noi) = 1.
    mask = np.isfinite(sig)
    np.testing.assert_allclose(sig[mask] + (1.0 - noi[mask]), 1.0, rtol=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_dropping_noise_term_bounded_by_largest_noise_eigenvalue(seed):
    # |OMP energy - weighted residual signal energy| <= lambda_n_max *
    # ||Pc a||^2 pointwise: the dropped term is the weighted noise energy.
    R, dec, grid, _ = scenario_dec(seed=seed, M=12, K=3)
    state = advance(initial_state(dec.S, grid), "ratio", 1)
    pc = complement_projector(state)
    omp_energy = colnorms_sq(pc @ dec.sqrt_R, grid, "fft")
    weighted = greedy_objective(on_operand(state, dec.weighted_signal), "norm")
    bound = dec.lambda_n.max() * colnorms_sq(pc, grid, "fft")
    slack = 1e-9 * omp_energy.max()
    assert np.all(np.abs(omp_energy - weighted) <= bound + slack)


def test_residuals_reproject_original_subspaces():
    _, dec, grid, _ = scenario_dec(seed=7)
    state = advance(initial_state(dec.S, grid), "ratio", 2)
    _, Pc = projectors(steering_matrix(grid.angles[list(state.selected)], dec.M))
    Sres = residual(state, dec.S)
    np.testing.assert_allclose(Sres, Pc @ dec.S, atol=1e-12)
    np.testing.assert_allclose(residual(state, dec.G), Pc @ dec.G, atol=1e-12)
    # After selecting an angle, the residual signal energy there is gone.
    for u in grid.angles[list(state.selected)]:
        a = steering_matrix([u], dec.M)[:, 0]
        assert np.sum(np.abs(Sres.conj().T @ a) ** 2) <= 1e-9 * dec.M


def test_variant_operand_selects_subspace():
    # The method table's operands: imusic rows score S, iwmusic rows S
    # scaled by sqrt(lambda_s).
    _, dec, _, _ = scenario_dec(seed=8)
    for method in ("omp-imusic", "ols-imusic"):
        np.testing.assert_array_equal(getattr(dec, METHODS[method].operand), dec.S)
    for method in ("omp-iwmusic", "ols-iwmusic"):
        np.testing.assert_array_equal(
            getattr(dec, METHODS[method].operand), dec.weighted_signal
        )


def test_duplicate_angle_rejected():
    _, dec, grid, _ = scenario_dec(seed=9)
    state = initial_state(dec.S, grid)
    greedy_update(state, 5)
    with pytest.raises(ValueError, match="already selected"):
        greedy_update(state, 5)


# ---------------------------------------------------------------- dispatch


def test_resolve_variant(monkeypatch):
    # ols-imusic scores the narrower subspace: S while K <= M-K, then G in
    # the complement-ratio form; other ids keep their operand and form.
    real = greedy.greedy_objective
    seen = set()

    def spy(state, form, *args, **kwargs):
        seen.add((state.res.shape[1], form))
        return real(state, form, *args, **kwargs)

    monkeypatch.setattr(greedy, "greedy_objective", spy)
    for method, K, width, form in (
        ("ols-imusic", 3, 3, "ratio"),
        ("ols-imusic", 8, 8, "ratio"),
        ("ols-imusic", 9, 7, "complement-ratio"),
        ("omp-imusic", 9, 9, "norm"),
        ("ols-iwmusic", 9, 9, "ratio"),
    ):
        R, _, grid, _ = scenario_dec(seed=12, M=16, K=K, N=256)
        seen.clear()
        estimate_method(method, R, K, grid)
        assert seen == {(width, form)}, (method, K)
    with pytest.raises(ValueError, match="method"):
        estimate_method("imusic", R, 2, grid)


# ---------------------------------------------------------------- estimates


def test_single_evd_per_estimate():
    R, _, grid, _ = scenario_dec(seed=10, M=16, K=4, N=256)
    for method in GIMUSIC_METHODS:
        before = evd_call_count()
        estimate_method(method, R, 4, grid)
        assert evd_call_count() - before == 1, method


def test_evd_emulation_counts_k_and_keeps_selection():
    R, _, grid, _ = scenario_dec(seed=11, M=16, K=5, N=256)
    plain = estimate_method("ols-imusic", R, 5, grid)
    before = evd_call_count()
    emulated = estimate_with_evd_per_iter("ols-imusic", R, 5, grid)
    assert evd_call_count() - before == 5
    np.testing.assert_array_equal(plain, emulated)


def test_estimate_validates_k():
    R, _, grid, _ = scenario_dec(seed=13)
    with pytest.raises(ValueError, match="K must satisfy"):
        estimate_method("ols-imusic", R, -1, grid)
    with pytest.raises(ValueError, match="K must satisfy"):
        estimate_method("ols-imusic", R, 8, grid)


@pytest.mark.parametrize("method", GIMUSIC_METHODS)
def test_noiseless_two_targets_exact(method):
    cfg = ScenarioConfig(
        targets=2,
        antennas=8,
        subcarriers=32,
        symbols=4,
        snr_db=math.inf,
        grid_points=256,
        seed=14,
    )
    grid = make_grid(cfg.grid_points, cfg.antennas)
    truth = GroundTruth(
        doas=grid.angles[np.array([64, 160])],
        # Delay gap of 4e-7 s completes one full cycle across the 32
        # subcarriers (at 78125 Hz spacing), so the coefficient rows are
        # exactly uncorrelated and beamformer-type objectives are unbiased.
        ranges=np.array([1e-7, 5e-7]),
        dopplers=np.zeros(2),
        amplitudes=np.array([1.0 + 0j, 0.8j]),
        noise_variance=0.0,
    )
    obs = synthesize_observation(truth, cfg, trial_rng(cfg.seed, 0))
    est = estimate_method(method, sample_covariance(obs.Y), 2, grid)
    np.testing.assert_array_equal(np.sort(est), np.sort(truth.doas))
