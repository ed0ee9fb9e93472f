"""Scenario synthesis: configs, target draws, observations, covariance draws, RNG streams."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doalab import scenario
from doalab.linalg import evd_call_count
from doalab.scenario import (
    GroundTruth,
    ScenarioConfig,
    coefficient_gram,
    complex_wishart,
    covariance_from_parts,
    draw_covariance,
    draw_targets,
    gram_factor,
    steering_matrix,
    synthesize_observation,
    trial_rng,
)
from doalab.subspace import sample_covariance
from reference_linalg import projectors


def small_cfg(**overrides):
    base = dict(
        targets=3,
        antennas=8,
        subcarriers=32,
        symbols=4,
        snr_db=20.0,
        grid_points=256,
        seed=5,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------- config


def test_config_defaults_validate():
    ScenarioConfig().validate()


@pytest.mark.parametrize(
    "overrides",
    [
        dict(targets=0),
        dict(antennas=1, targets=0),
        dict(targets=8, antennas=8),
        dict(targets=9, antennas=8),
        dict(subcarriers=0),
        dict(symbols=0),
        dict(grid_points=8),
        dict(snr_db=-math.inf),
        dict(snr_db=math.nan),
    ],
)
def test_config_rejects_bad_values(overrides):
    with pytest.raises(ValueError):
        small_cfg(**overrides).validate()


@pytest.mark.parametrize(
    "overrides,message",
    [
        (dict(grid_points=257), "even"),
        (dict(subcarrier_spacing_hz=0.0), "subcarrier_spacing_hz"),
        (dict(subcarrier_spacing_hz=-78125.0), "subcarrier_spacing_hz"),
        (dict(subcarrier_spacing_hz=math.inf), "subcarrier_spacing_hz"),
        (dict(carrier_freq_hz=math.inf), "carrier_freq_hz"),
        (dict(carrier_freq_hz=math.nan), "carrier_freq_hz"),
        (dict(carrier_freq_hz=0.0), "carrier_freq_hz"),
        (dict(max_range_m=math.inf), "max_range_m"),
        (dict(max_range_m=math.nan), "max_range_m"),
        (dict(max_range_m=3.0), "max_range_m"),
    ],
)
def test_config_rejects_bad_grids(overrides, message):
    # make_grid would reject an odd size only once trials run, and a zero or
    # non-finite phase factor makes every steering vector degenerate; above
    # pi they alias across the grid.  Bad scene physics would fail inside
    # every trial's draw or synthesis instead of before the sweep.
    with pytest.raises(ValueError, match=message):
        small_cfg(**overrides).validate()


def test_config_derived_quantities():
    cfg = small_cfg(subcarriers=40, symbols=5, subcarrier_spacing_hz=1e5)
    assert cfg.snapshots == 200
    assert cfg.symbol_period_s == pytest.approx(1e-5)


# ---------------------------------------------------------------- rng streams


def test_trial_rng_is_reproducible_and_stream_separated():
    a1 = trial_rng(42, 7).standard_normal(8)
    a2 = trial_rng(42, 7).standard_normal(8)
    b = trial_rng(42, 8).standard_normal(8)
    c = trial_rng(43, 7).standard_normal(8)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


@given(st.integers(0, 2**63), st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_trial_rng_accepts_any_seed_index(seed, trial):
    gen = trial_rng(seed, trial)
    assert np.isfinite(gen.standard_normal())


# ---------------------------------------------------------------- steering


@given(st.floats(-1.0, 1.0), st.integers(2, 64))
@settings(max_examples=60, deadline=None)
def test_steering_matrix_structure(u, M):
    A = steering_matrix([u], M)
    assert A.shape == (M, 1)
    a = A[:, 0]
    np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)
    assert a[0] == 1.0 + 0j
    # Geometric phase progression: a[m+1]/a[m] is constant.
    if M > 2:
        ratios = a[1:] / a[:-1]
        np.testing.assert_allclose(ratios, ratios[0], atol=1e-12)


def test_steering_matrix_oracle_values():
    a = steering_matrix([0.5], 4)[:, 0]
    expected = np.exp(1j * math.pi * 0.5 * np.arange(4))
    np.testing.assert_allclose(a, expected, atol=1e-15)
    assert steering_matrix([0.0], 6)[:, 0] == pytest.approx(np.ones(6))


def test_steering_matrix_rejects_out_of_range():
    with pytest.raises(ValueError):
        steering_matrix([1.5], 8)
    with pytest.raises(ValueError):
        steering_matrix([0.0, -1.2], 8)


def test_steering_matrix_stacks_columns():
    us = [-0.3, 0.0, 0.7]
    A = steering_matrix(us, 10)
    assert A.shape == (10, 3)
    for i, u in enumerate(us):
        np.testing.assert_allclose(A[:, i], steering_matrix([u], 10)[:, 0], atol=1e-15)
    assert steering_matrix([], 10).shape == (10, 0)


def test_orthogonal_spacing_gives_orthogonal_columns():
    # Angles spaced by exact multiples of 2/M have exactly orthogonal
    # steering vectors (DFT columns).
    M = 16
    A = steering_matrix([-0.5, 0.0, 0.25], M)
    gram = A.conj().T @ A / M
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)


# ---------------------------------------------------------------- draws


@pytest.mark.parametrize("seed", range(25))
def test_draw_targets_postconditions(seed):
    cfg = small_cfg(seed=seed)
    truth = draw_targets(cfg, trial_rng(cfg.seed, 0))
    K = cfg.targets
    assert truth.doas.shape == (K,)
    assert np.all(truth.doas >= -1.0) and np.all(truth.doas < 1.0)
    if K > 1:
        assert np.min(np.diff(np.sort(truth.doas))) >= 2.0 / cfg.grid_points
    # Delays correspond to two-way ranges inside [5 m, max_range_m].
    ranges_m = truth.ranges * scenario.SPEED_OF_LIGHT / 2.0
    assert np.all(ranges_m >= scenario.MIN_RANGE_M - 1e-9)
    assert np.all(ranges_m <= cfg.max_range_m + 1e-9)
    # Inverse-square amplitude law.
    np.testing.assert_allclose(
        np.abs(truth.amplitudes), (scenario.RANGE_REF_M / ranges_m) ** 2, rtol=1e-12
    )
    # Doppler budget: quarter of the slow-time Nyquist rate.
    f_max = 0.25 / (cfg.symbols * cfg.symbol_period_s)
    assert np.all(np.abs(truth.dopplers) <= f_max)
    # SNR identity.
    expected_sigma2 = np.mean(np.abs(truth.amplitudes) ** 2) / 10.0 ** (
        cfg.snr_db / 10.0
    )
    assert truth.noise_variance == pytest.approx(expected_sigma2, rel=1e-12)


def test_draw_targets_noiseless():
    truth = draw_targets(small_cfg(snr_db=math.inf), trial_rng(1, 0))
    assert truth.noise_variance == 0.0


def test_draw_targets_exhausts_attempts(monkeypatch):
    # 7 targets on a 16-cell grid leave almost no slack; with a single
    # attempt allowed the block-rejection sampler must give up.
    monkeypatch.setattr(scenario, "MAX_DRAW_ATTEMPTS", 1)
    cfg = ScenarioConfig(
        targets=7, antennas=8, subcarriers=8, symbols=2, grid_points=16, seed=0
    )
    with pytest.raises(ValueError, match="gap"):
        draw_targets(cfg, trial_rng(0, 0))


# ---------------------------------------------------------------- synthesis


def test_observation_shapes_and_recombination():
    cfg = small_cfg()
    rng = trial_rng(cfg.seed, 3)
    truth = draw_targets(cfg, rng)
    obs = synthesize_observation(truth, cfg, rng)
    L = cfg.snapshots
    assert obs.Y.shape == (cfg.antennas, L)
    assert obs.coeffs.shape == (cfg.targets, L)
    assert obs.noise.shape == (cfg.antennas, L)
    A = steering_matrix(truth.doas, cfg.antennas)
    np.testing.assert_array_equal(obs.Y, A @ obs.coeffs + obs.noise)


def test_same_seed_bit_identical_observation():
    cfg = small_cfg(seed=99)

    def make():
        rng = trial_rng(cfg.seed, 11)
        truth = draw_targets(cfg, rng)
        return synthesize_observation(truth, cfg, rng)

    a, b = make(), make()
    np.testing.assert_array_equal(a.Y, b.Y)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)
    np.testing.assert_array_equal(a.noise, b.noise)
    np.testing.assert_array_equal(a.truth.doas, b.truth.doas)


def test_coefficient_phase_structure_oracle():
    # Recompute one coefficient entry from scratch, independent of the
    # vectorized synthesis: column d*Q + q must carry the carrier phase, the
    # delay ramp across q, and the Doppler ramp across d.
    cfg = small_cfg()
    rng = trial_rng(cfg.seed, 2)
    truth = draw_targets(cfg, rng)
    obs = synthesize_observation(truth, cfg, rng)
    Q = cfg.subcarriers
    symbols = obs.coeffs[0] / (
        truth.amplitudes[0]
        * np.exp(-2j * math.pi * cfg.carrier_freq_hz * truth.ranges[0])
        * np.exp(
            -2j
            * math.pi
            * cfg.subcarrier_spacing_hz
            * truth.ranges[0]
            * np.tile(np.arange(Q), cfg.symbols)
        )
        * np.exp(
            2j
            * math.pi
            * truth.dopplers[0]
            * cfg.symbol_period_s
            * np.repeat(np.arange(cfg.symbols), Q)
        )
    )
    # What remains is the unit-modulus data-symbol sequence, shared by all
    # target rows.
    np.testing.assert_allclose(np.abs(symbols), 1.0, atol=1e-9)
    for k in range(1, cfg.targets):
        beta_k = obs.coeffs[k] / symbols
        phase_c = truth.amplitudes[k] * np.exp(
            -2j * math.pi * cfg.carrier_freq_hz * truth.ranges[k]
        )
        ramp = np.exp(
            -2j
            * math.pi
            * cfg.subcarrier_spacing_hz
            * truth.ranges[k]
            * np.tile(np.arange(Q), cfg.symbols)
        ) * np.exp(
            2j
            * math.pi
            * truth.dopplers[k]
            * cfg.symbol_period_s
            * np.repeat(np.arange(cfg.symbols), Q)
        )
        np.testing.assert_allclose(beta_k, phase_c * ramp, rtol=1e-9)


def test_noiseless_observation_lies_in_steering_span():
    cfg = small_cfg(snr_db=math.inf)
    rng = trial_rng(cfg.seed, 0)
    truth = draw_targets(cfg, rng)
    obs = synthesize_observation(truth, cfg, rng)
    A = steering_matrix(truth.doas, cfg.antennas)
    _, Pc = projectors(A)
    assert np.linalg.norm(Pc @ obs.Y) <= 1e-9 * np.linalg.norm(obs.Y)


def test_empirical_snr_matches_configured():
    # Pool enough noise entries that the variance estimate is well inside
    # the 2% band: one observation with D*Q = 10240 at M = 8 gives 81,920
    # complex draws.
    cfg = ScenarioConfig(
        targets=3,
        antennas=8,
        subcarriers=256,
        symbols=40,
        snr_db=17.0,
        grid_points=256,
        seed=21,
    )
    rng = trial_rng(cfg.seed, 0)
    truth = draw_targets(cfg, rng)
    obs = synthesize_observation(truth, cfg, rng)
    sigma2_hat = np.mean(np.abs(obs.noise) ** 2)
    snr_hat = np.mean(np.abs(truth.amplitudes) ** 2) / sigma2_hat
    assert snr_hat == pytest.approx(10.0 ** (cfg.snr_db / 10.0), rel=0.02)


def test_unit_modulus_symbols_preserve_amplitude_law():
    cfg = small_cfg()
    rng = trial_rng(cfg.seed, 1)
    truth = draw_targets(cfg, rng)
    obs = synthesize_observation(truth, cfg, rng)
    # |coeffs| is constant along each row at |alpha_k|.
    np.testing.assert_allclose(
        np.abs(obs.coeffs),
        np.abs(truth.amplitudes)[:, None] * np.ones_like(obs.coeffs, dtype=float),
        rtol=1e-12,
    )


def test_ground_truth_accepts_hand_built_scenes():
    # The synthesis path works from constructed truth, not only drawn truth.
    cfg = small_cfg(targets=2, snr_db=math.inf)
    truth = GroundTruth(
        doas=np.array([-0.25, 0.5]),
        ranges=np.array([1e-7, 2e-7]),
        dopplers=np.zeros(2),
        amplitudes=np.array([1.0 + 0j, 1j]),
        noise_variance=0.0,
    )
    obs = synthesize_observation(truth, cfg, trial_rng(0, 0))
    assert obs.Y.shape == (cfg.antennas, cfg.snapshots)
    assert np.linalg.norm(obs.noise) == 0.0


# ---------------------------------------------------------------- covariance draws

# (targets, antennas, symbols, subcarriers): K = 1, L >= M, K < L < M, L < K.
GRAM_SCENES = [(1, 8, 4, 32), (3, 8, 2, 16), (3, 8, 1, 6), (5, 8, 1, 3)]


def scene_cfg(K, M, D, Q, **overrides):
    return small_cfg(targets=K, antennas=M, symbols=D, subcarriers=Q, **overrides)


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("K, M, D, Q", GRAM_SCENES)
@pytest.mark.parametrize("trial", [0, 1])
def test_coefficient_gram_matches_the_explicit_coefficients(K, M, D, Q, trial):
    cfg = scene_cfg(K, M, D, Q)
    rng = trial_rng(cfg.seed, trial)
    truth = draw_targets(cfg, rng)
    coeffs = synthesize_observation(truth, cfg, rng).coeffs
    assert rel_err(coefficient_gram(truth, cfg), coeffs @ coeffs.conj().T) < 1e-12


@pytest.mark.parametrize("K, M, D, Q", GRAM_SCENES)
def test_covariance_formula_reproduces_the_explicit_sample_covariance(K, M, D, Q):
    # Split one explicit noise draw N as N1 B + N2 B_perp, where the rows of
    # B are an orthonormal basis of the coefficients' row space, so that
    # C = Gamma B, and B_perp completes them; the sampler's formula then
    # gives sample_covariance(A C + N), up to rounding.
    cfg = scene_cfg(K, M, D, Q)
    rng = trial_rng(cfg.seed, 2)
    truth = draw_targets(cfg, rng)
    obs = synthesize_observation(truth, cfg, rng)
    C, N, L = obs.coeffs, obs.noise, cfg.snapshots
    r = min(K, L)
    rows = np.linalg.svd(C)[2]
    B, B_perp = rows[:r], rows[r:]
    gamma = C @ B.conj().T
    assert rel_err(gamma @ B, C) < 1e-12
    N1, N2 = N @ B.conj().T, N @ B_perp.conj().T
    assert rel_err(N1 @ B + N2 @ B_perp, N) < 1e-12
    A = steering_matrix(truth.doas, M)
    R = covariance_from_parts(A, gamma, N1, N2 @ N2.conj().T, L)
    assert rel_err(R, sample_covariance(obs.Y)) < 1e-12
    np.testing.assert_array_equal(R, R.conj().T)
    # The sampler's own factor differs from gamma by an r x r unitary only.
    mine = gram_factor(C @ C.conj().T, r)
    assert mine.shape == (K, r)
    assert rel_err(mine @ mine.conj().T, gamma @ gamma.conj().T) < 1e-12


@pytest.mark.parametrize("dof", [0, 2, 4, 7])
def test_complex_wishart_moments(dof):
    # dof >= M = 4 takes the Bartlett factor, fewer an explicit block.  For
    # W = N N^H with N of i.i.d. CN(0, 1) entries: E W = dof I, Var W_ii =
    # dof, and an off-diagonal entry is circular with E|W_ij|^2 = dof.
    M, draws = 4, 4000
    rng = np.random.default_rng(31)
    W = np.array([complex_wishart(M, dof, rng) for _ in range(draws)])
    assert W.shape == (draws, M, M)
    np.testing.assert_array_equal(W, np.conj(np.swapaxes(W, 1, 2)))
    if dof == 0:
        assert not W.any()
        return
    off = ~np.eye(M, dtype=bool)
    se = math.sqrt(dof / draws)  # standard error of one entry's mean
    np.testing.assert_allclose(W.mean(axis=0), dof * np.eye(M), atol=5 * se)
    diag = W[:, np.arange(M), np.arange(M)]
    assert not diag.imag.any()
    np.testing.assert_allclose(diag.real.var(axis=0), dof, rtol=0.15)
    np.testing.assert_allclose(np.mean(np.abs(W[:, off]) ** 2, axis=0), dof, rtol=0.15)
    np.testing.assert_allclose(np.mean(W[:, off].real ** 2, axis=0), dof / 2, rtol=0.15)
    np.testing.assert_allclose(np.mean(W[:, off].imag ** 2, axis=0), dof / 2, rtol=0.15)


@pytest.mark.parametrize("K, M, D, Q", GRAM_SCENES)
def test_noiseless_draw_is_the_signal_covariance(K, M, D, Q):
    cfg = scene_cfg(K, M, D, Q, snr_db=math.inf)
    rng = trial_rng(cfg.seed, 0)
    truth = draw_targets(cfg, rng)
    gram = coefficient_gram(truth, cfg)
    state = rng.bit_generator.state
    R = draw_covariance(truth, gram, cfg, rng)
    assert rng.bit_generator.state == state  # nothing drawn
    A = steering_matrix(truth.doas, M)
    assert rel_err(R, A @ gram @ A.conj().T / cfg.snapshots) < 1e-12


@pytest.mark.parametrize("K, M, D, Q", GRAM_SCENES)
def test_covariance_draw_is_hermitian_psd_with_the_snapshot_rank(K, M, D, Q):
    # L - min(K, L) >= M uses the Bartlett factor, fewer the explicit block,
    # and L <= K no complement at all; R = Y Y^H / L has rank min(M, L).
    # The draw's own factorization is not an estimator EVD: the counter
    # behind criterion 7 must not move.
    cfg = scene_cfg(K, M, D, Q)
    rng = trial_rng(cfg.seed, 4)
    truth = draw_targets(cfg, rng)
    evds = evd_call_count()
    R = draw_covariance(truth, coefficient_gram(truth, cfg), cfg, rng)
    assert evd_call_count() == evds
    np.testing.assert_array_equal(R, R.conj().T)
    w = np.linalg.eigvalsh(R)
    rank = min(M, cfg.snapshots)
    assert np.all(w > -1e-12 * w[-1])
    assert np.all(w[M - rank :] > 1e-9 * w[-1])
    assert np.all(np.abs(w[: M - rank]) < 1e-12 * w[-1])


@pytest.mark.parametrize("K, M, D, Q", GRAM_SCENES)
def test_covariance_draw_mean_is_the_model_covariance(K, M, D, Q):
    # E R = A gram A^H / L + sigma^2 I on every path, as for Y Y^H / L.
    cfg = scene_cfg(K, M, D, Q, snr_db=0.0)
    truth = draw_targets(cfg, trial_rng(cfg.seed, 0))
    gram = coefficient_gram(truth, cfg)
    rng = np.random.default_rng(8)
    draws = 3000
    mean = sum(draw_covariance(truth, gram, cfg, rng) for _ in range(draws)) / draws
    A = steering_matrix(truth.doas, M)
    L, sigma2 = cfg.snapshots, truth.noise_variance
    model = A @ gram @ A.conj().T / L + sigma2 * np.eye(M)
    # Each entry's sd is at most sqrt(R_ii R_jj / L); 5 standard errors.
    sd = np.sqrt(np.outer(np.diag(model).real, np.diag(model).real) / L)
    assert np.all(np.abs(mean - model) < 5 * sd / math.sqrt(draws))


def test_covariance_draw_replays_per_trial_stream():
    cfg = small_cfg()

    def draw(trial):
        rng = trial_rng(cfg.seed, trial)
        truth = draw_targets(cfg, rng)
        return draw_covariance(truth, coefficient_gram(truth, cfg), cfg, rng)

    np.testing.assert_array_equal(draw(3), draw(3))
    assert not np.array_equal(draw(3), draw(4))
