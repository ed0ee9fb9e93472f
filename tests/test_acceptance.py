"""End-to-end acceptance tests for the package's headline guarantees.

Each test checks one shipping claim at its stated tolerance and, on success,
prints a single PASS line with the measured margin (visible with ``-s`` or
``-rA``; under ``pytest -v`` the test status line itself is the per-claim
verdict).  Unlike the per-module suites, these tests cross module
boundaries: they drive the estimators exactly the way the benchmark harness
does and verify the algebraic identities, the evaluator equivalences, the
statistical trends, and the timing claims end to end.

Timing-sensitive tests use interleaved round-robin repetitions and medians
(or means where the claim is about means) so clock-frequency drift hits all
contenders equally.  The pinned single-threaded BLAS environment comes from
conftest.py.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import permutations
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from doalab.bench import run_trial
from doalab.fastgrid import make_grid
from doalab.greedy import MASK_RTOL, greedy_objective, greedy_update, initial_state
from doalab.linalg import evd_call_count, hermitian_evd, partition, sample_covariance
from doalab.methods import METHOD_IDS, estimate_method
from doalab.metrics import associate, detection_metrics, diagnostics, diagonality_score
from doalab.scenario import (
    GroundTruth,
    ScenarioConfig,
    draw_targets,
    steering_matrix,
    synthesize_observation,
    trial_rng,
)
from reference_linalg import (
    complement_projector,
    estimate_with_evd_per_iter,
    projectors,
    reference_objective_values,
    residual,
)

# Methods compared in the 500-trial detection/precision sweep.  The classic
# MUSIC baseline is the noise-form variant; the signal form shares its peak
# set (asserted separately below), so the choice does not affect any metric.
SWEEP_METHODS = ("music-noise", "omp", "ols", "omp-imusic", "ols-imusic")
# The greedy iterative-MUSIC methods: one eigendecomposition per estimate.
GIMUSIC_METHODS = ("omp-imusic", "ols-imusic", "omp-iwmusic", "ols-iwmusic")
# Objective form of each criterion-5 case; "ols-imusic-signal" and
# "ols-imusic-noise" are ols-imusic's forms at K <= M-K and K > M-K.
CASE_FORMS = {
    "music-signal": "norm",
    "music-noise": "reciprocal",
    "wmusic-signal": "norm",
    "wmusic-noise": "reciprocal",
    "omp": "norm",
    "ols": "ratio",
    "omp-imusic": "norm",
    "ols-imusic-signal": "ratio",
    "ols-imusic-noise": "complement-ratio",
    "omp-iwmusic": "norm",
    "ols-iwmusic": "ratio",
}


def _report(number: int, detail: str) -> None:
    print(f"acceptance {number:02d}: PASS - {detail}")


def _random_observation(rng: np.random.Generator, M: int, L: int) -> np.ndarray:
    return (rng.standard_normal((M, L)) + 1j * rng.standard_normal((M, L))) / math.sqrt(2)


def _separated_angles(rng: np.random.Generator, K: int, min_sep: float = 0.05) -> np.ndarray:
    """K angles on [-1, 1) with pairwise separation, for stable projectors."""
    while True:
        u = np.sort(rng.uniform(-1.0, 1.0, K))
        if K == 1 or np.min(np.diff(u)) >= min_sep:
            return u


def _grid_indices(grid, angles: np.ndarray) -> np.ndarray:
    """Map grid-valued angles back to their grid indices."""
    return np.rint((np.asarray(angles) + 1.0) * grid.N / 2.0).astype(int) % grid.N


def _bootstrap_mean_lower(
    diffs: np.ndarray, seed: int = 20240817, resamples: int = 2000, quantile: float = 0.05
) -> float:
    """Lower bootstrap confidence bound (one-sided 95%) on the mean of diffs."""
    diffs = np.asarray(diffs, dtype=float)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, diffs.size, size=(resamples, diffs.size))
    means = diffs[idx].mean(axis=1)
    return float(np.quantile(means, quantile))


def _interleaved_medians(tasks: dict, repeats: int) -> dict:
    """Median wall-clock seconds per task, measured round-robin."""
    for fn in tasks.values():  # warm caches and allocators outside the clock
        fn()
    times = {name: [] for name in tasks}
    for _ in range(repeats):
        for name, fn in tasks.items():
            t0 = perf_counter()
            fn()
            times[name].append(perf_counter() - t0)
    return {name: float(np.median(ts)) for name, ts in times.items()}


# ---------------------------------------------------------------------------
# 1. The three algebraic forms of the captured-energy objective agree.
# ---------------------------------------------------------------------------


def test_criterion_01_captured_energy_forms_agree():
    start = perf_counter()
    rng = np.random.default_rng(101)
    M, K, L = 8, 3, 64
    worst = 0.0
    for _ in range(100):
        Y = _random_observation(rng, M, L)
        R = sample_covariance(Y)
        sqrt_R = partition(R, K).sqrt_R
        P, _ = projectors(steering_matrix(_separated_angles(rng, K), M))
        form_snapshots = np.linalg.norm(Y.conj().T @ P) ** 2 / L
        form_trace = float(np.trace(R @ P).real)
        form_sqrt = np.linalg.norm(sqrt_R.conj().T @ P) ** 2
        ref = max(form_snapshots, form_trace, form_sqrt)
        worst = max(
            worst,
            abs(form_snapshots - form_trace) / ref,
            abs(form_sqrt - form_trace) / ref,
            abs(form_snapshots - form_sqrt) / ref,
        )
    elapsed = perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 5.0
    _report(1, f"worst relative deviation {worst:.2e} across 100 instances in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. The ratio-form OLS objective matches a naive per-candidate refit.
# ---------------------------------------------------------------------------


def _naive_ols_scores(state, sqrt_R, grid) -> np.ndarray:
    """Captured energy of an explicit augmented-projector refit per candidate.

    For each grid angle, the projector onto the span of all selected steering
    vectors plus the candidate is built from scratch and applied to the
    initial covariance square root.  Degenerate candidates (projected
    steering norm below the same threshold the fast path uses) are masked.
    """
    M = complement_projector(state).shape[0]
    if state.selected:
        A_sel = steering_matrix(grid.angles[list(state.selected)], M)
    else:
        A_sel = np.empty((M, 0), dtype=complex)
    pc_norms = np.sum(np.abs(complement_projector(state) @ grid.steering) ** 2, axis=0)
    scores = np.full(grid.N, -np.inf)
    for p in range(grid.N):
        if pc_norms[p] < MASK_RTOL * M:
            continue
        B = np.hstack([A_sel, grid.steering[:, p : p + 1]])
        P = B @ np.linalg.pinv(B)
        scores[p] = np.linalg.norm(P @ sqrt_R) ** 2
    return scores


def test_criterion_02_ols_fast_form_matches_naive_refit():
    rng = np.random.default_rng(202)
    M, K, L, N = 8, 3, 32, 256
    grid = make_grid(N, M)
    for _ in range(100):
        R = sample_covariance(_random_observation(rng, M, L))
        sqrt_R = partition(R, K).sqrt_R
        state = initial_state(sqrt_R, grid, "fft")
        for _ in range(K):
            fast = greedy_objective(state, "ratio")
            slow = _naive_ols_scores(state, sqrt_R, grid)
            pick = int(np.argmax(fast))
            assert pick == int(np.argmax(slow))
            greedy_update(state, pick)

    # Timing claim: one mid-selection iteration at M=16, N=2048.
    M2, N2 = 16, 2048
    grid2 = make_grid(N2, M2)
    R2 = sample_covariance(_random_observation(rng, M2, 64))
    sqrt_R2 = partition(R2, 1).sqrt_R
    state2 = initial_state(sqrt_R2, grid2, "fft")
    for _ in range(2):
        ps = greedy_objective(state2, "ratio")
        greedy_update(state2, int(np.argmax(ps)))
    meds = _interleaved_medians(
        {
            "fast": lambda: greedy_objective(state2, "ratio"),
            "slow": lambda: _naive_ols_scores(state2, sqrt_R2, grid2),
        },
        repeats=3,
    )
    speedup = meds["slow"] / meds["fast"]
    assert speedup >= 5.0
    _report(2, f"identical argmax on 300 iterations; fast form {speedup:.0f}x faster")


# ---------------------------------------------------------------------------
# 3. The residual-correlation objective equals the weighted subspace sum.
# ---------------------------------------------------------------------------


def test_criterion_03_residual_correlation_equals_weighted_subspace_sum():
    rng = np.random.default_rng(303)
    M, K, L, N = 8, 3, 64, 256
    grid = make_grid(N, M)
    worst = 0.0
    for _ in range(100):
        R = sample_covariance(_random_observation(rng, M, L))
        dec = partition(R, K)
        state = initial_state(dec.sqrt_R, grid, "direct")
        for _ in range(K):
            omp_vals = greedy_objective(state, "norm")
            proj = (complement_projector(state) @ dec.eigenvectors).conj().T @ grid.steering
            subspace_sum = dec.eigenvalues @ (proj.real**2 + proj.imag**2)
            scale = float(omp_vals.max())
            np.testing.assert_allclose(
                subspace_sum, omp_vals, rtol=1e-9, atol=1e-9 * scale
            )
            worst = max(worst, float(np.max(np.abs(subspace_sum - omp_vals))) / scale)
            greedy_update(state, int(np.argmax(omp_vals)))
    _report(3, f"pointwise identity holds every iteration; worst scaled error {worst:.1e}")


# ---------------------------------------------------------------------------
# 4. Signal- and noise-form residual-ratio objectives pick the same angle.
# ---------------------------------------------------------------------------


def test_criterion_04_residual_ratio_signal_and_noise_forms_agree():
    rng = np.random.default_rng(404)
    M, L, N = 8, 64, 512
    grid = make_grid(N, M)
    for _ in range(100):
        R = sample_covariance(_random_observation(rng, M, L))
        K = int(rng.integers(1, 5))
        dec = partition(R, K)
        state, noise_state = initial_state(dec.S, grid), initial_state(dec.G, grid)
        for _ in range(int(rng.integers(0, 3))):
            pick = int(rng.integers(0, N))
            if pick not in state.selected:
                greedy_update(state, pick)
                greedy_update(noise_state, pick)
        sig = greedy_objective(state, "ratio")
        noi = greedy_objective(noise_state, "complement-ratio")
        assert int(np.argmax(sig)) == int(np.argmax(noi))
        np.testing.assert_array_equal(np.isneginf(sig), np.isneginf(noi))
    _report(4, "identical selections on 100 random states (masks identical too)")


# ---------------------------------------------------------------------------
# 5. FFT and direct evaluators agree on every objective variant, FFT faster.
# ---------------------------------------------------------------------------


def test_criterion_05_fft_evaluator_matches_direct_and_is_faster():
    M, N, K = 64, 8192, 8
    grid = make_grid(N, M)
    cfg = ScenarioConfig(
        targets=K, antennas=M, subcarriers=64, symbols=4, snr_db=20.0,
        grid_points=N, seed=5,
    )
    rng = trial_rng(cfg.seed, 0)
    truth = draw_targets(cfg, rng)
    R = sample_covariance(synthesize_observation(truth, cfg, rng).Y)
    dec = partition(R, K)

    sqrt_R = dec.sqrt_R
    gstate = initial_state(sqrt_R, grid, "fft")
    for _ in range(3):
        vals = greedy_objective(gstate, "ratio")
        greedy_update(gstate, int(np.argmax(vals)))
    istate = initial_state(dec.S, grid)
    for _ in range(3):
        vals = greedy_objective(istate, "ratio")
        greedy_update(istate, int(np.argmax(vals)))
    weighted_res = residual(istate, dec.weighted_signal)

    cases = {
        "music-signal": (dec.S, None),
        "music-noise": (dec.G, None),
        "wmusic-signal": (dec.weighted_signal, None),
        "wmusic-noise": (dec.weighted_noise, None),
        "omp": (residual(gstate, sqrt_R), complement_projector(gstate)),
        "ols": (residual(gstate, sqrt_R), complement_projector(gstate)),
        "omp-imusic": (residual(istate, dec.S), complement_projector(istate)),
        "ols-imusic-signal": (residual(istate, dec.S), complement_projector(istate)),
        "ols-imusic-noise": (residual(istate, dec.G), complement_projector(istate)),
        "omp-iwmusic": (weighted_res, complement_projector(istate)),
        "ols-iwmusic": (weighted_res, complement_projector(istate)),
    }
    worst = 0.0
    for variant, (num, pc) in cases.items():
        vf = reference_objective_values(num, grid, CASE_FORMS[variant], "fft", pc=pc)
        vd = reference_objective_values(num, grid, CASE_FORMS[variant], "direct", pc=pc)
        finite = np.isfinite(vd)
        np.testing.assert_array_equal(np.isfinite(vf), finite)
        scale = float(np.max(np.abs(vd[finite])))
        np.testing.assert_allclose(
            vf[finite], vd[finite], rtol=1e-8, atol=1e-8 * scale
        )
        assert int(np.argmax(vf)) == int(np.argmax(vd))
        err = np.abs(vf[finite] - vd[finite]) / np.maximum(np.abs(vd[finite]), scale)
        worst = max(worst, float(err.max()))

    def sweep_all(evaluator):
        for variant, (num, pc) in cases.items():
            reference_objective_values(num, grid, CASE_FORMS[variant], evaluator, pc=pc)

    meds = _interleaved_medians(
        {"fft": lambda: sweep_all("fft"), "direct": lambda: sweep_all("direct")},
        repeats=5,
    )
    speedup = meds["direct"] / meds["fft"]
    assert speedup >= 1.5
    _report(
        5,
        f"all {len(cases)} variants agree (worst scaled error {worst:.1e}); "
        f"fft {speedup:.2f}x faster at M={M}, N={N}",
    )


# ---------------------------------------------------------------------------
# 6. Signal- and noise-form pseudospectra share their peak sets.
# ---------------------------------------------------------------------------


def test_criterion_06_pseudospectrum_forms_share_peaks():
    rng = np.random.default_rng(606)
    M, L, N = 12, 128, 512
    grid = make_grid(N, M)
    for _ in range(100):
        R = sample_covariance(_random_observation(rng, M, L))
        K = int(rng.integers(1, 6))
        sig = estimate_method("music-signal", R, K, grid)
        noi = estimate_method("music-noise", R, K, grid)
        np.testing.assert_array_equal(np.sort(sig), np.sort(noi))
    _report(6, "identical peak sets on 100 random decompositions")


# ---------------------------------------------------------------------------
# 7. One eigendecomposition per estimate; per-iteration emulation costs more.
# ---------------------------------------------------------------------------


def test_criterion_07_single_eigendecomposition_per_estimate():
    M, N = 16, 1024
    grid = make_grid(N, M)
    base = ScenarioConfig(
        antennas=M, subcarriers=64, symbols=4, snr_db=40.0, grid_points=N
    )
    for K in (1, 4, 8, 12):
        cfg = replace(base, targets=K, seed=700 + K)
        rng = trial_rng(cfg.seed, 0)
        truth = draw_targets(cfg, rng)
        R = sample_covariance(synthesize_observation(truth, cfg, rng).Y)
        for method in GIMUSIC_METHODS:
            before = evd_call_count()
            single = estimate_method(method, R, K, grid)
            assert evd_call_count() - before == 1
            before = evd_call_count()
            emulated = estimate_with_evd_per_iter(method, R, K, grid)
            assert evd_call_count() - before == K
            np.testing.assert_array_equal(single, emulated)

    cfg = replace(base, targets=12, seed=712)
    rng = trial_rng(cfg.seed, 0)
    truth = draw_targets(cfg, rng)
    R = sample_covariance(synthesize_observation(truth, cfg, rng).Y)
    estimate_method("ols-imusic", R, 12, grid)
    estimate_with_evd_per_iter("ols-imusic", R, 12, grid)
    t_single, t_emulated = [], []
    for _ in range(40):
        t0 = perf_counter()
        estimate_method("ols-imusic", R, 12, grid)
        t_single.append(perf_counter() - t0)
        t0 = perf_counter()
        estimate_with_evd_per_iter("ols-imusic", R, 12, grid)
        t_emulated.append(perf_counter() - t0)
    mean_single, mean_emulated = float(np.mean(t_single)), float(np.mean(t_emulated))
    assert mean_emulated > mean_single
    _report(
        7,
        f"counter 1 per estimate (K per estimate emulated); emulation "
        f"{mean_emulated / mean_single:.2f}x slower at K=12",
    )


# ---------------------------------------------------------------------------
# 8. Noiseless on-grid targets are recovered exactly by every method.
# ---------------------------------------------------------------------------


def test_criterion_08_noiseless_ongrid_recovery_is_exact():
    M, N = 16, 2048
    grid = make_grid(N, M)
    cfg = ScenarioConfig(
        targets=1, antennas=M, subcarriers=64, symbols=4, snr_db=math.inf,
        grid_points=N, seed=11,
    )
    index_sets = {
        1: np.array([1024]),
        2: np.array([768, 1280]),
        4: np.array([384, 768, 1280, 1664]),
    }
    for K, idx in index_sets.items():
        truth = GroundTruth(
            doas=grid.angles[idx],
            ranges=125e-9 + 200e-9 * np.arange(K),
            dopplers=np.zeros(K),
            amplitudes=np.full(K, 250.0 + 0.0j),
            noise_variance=0.0,
        )
        rng = trial_rng(cfg.seed, K)
        obs = synthesize_observation(truth, replace(cfg, targets=K), rng)
        R = sample_covariance(obs.Y)
        for method in METHOD_IDS:
            est = estimate_method(method, R, K, grid)
            np.testing.assert_array_equal(np.sort(_grid_indices(grid, est)), idx)
            det = detection_metrics(associate(truth.doas, est), M)
            assert det.youden_j == 1.0
    _report(8, "grid-exact recovery, J=1 for all methods at K in {1, 2, 4}")


# ---------------------------------------------------------------------------
# 9-10. 500-trial detection and precision trends (shared sweep).
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def detection_sweep():
    """500 trials of the K=8, M=16, Q=512, D=10, 40 dB scenario, rank-AIC order."""
    cfg = ScenarioConfig(
        targets=8, antennas=16, subcarriers=512, symbols=10, snr_db=40.0,
        grid_points=2048, seed=0,
    )
    start = perf_counter()
    criteria = ("rank-aic",) * len(SWEEP_METHODS)
    trials = [run_trial(cfg, t, SWEEP_METHODS, criteria) for t in range(500)]
    elapsed = perf_counter() - start
    for t in trials:
        for outcome in t.outcomes.values():
            assert outcome.error is None
    return trials, elapsed


def test_criterion_09_detection_gain_of_subspace_residual_methods(detection_sweep):
    trials, elapsed = detection_sweep
    j = {
        m: np.array([t.outcomes[m].youden_j for t in trials]) for m in SWEEP_METHODS
    }
    details = []
    for better, baseline in (
        ("ols-imusic", "ols"),
        ("omp-imusic", "omp"),
        ("ols-imusic", "music-noise"),
    ):
        diffs = j[better] - j[baseline]
        lower = _bootstrap_mean_lower(diffs)
        assert float(np.mean(diffs)) >= 0.0
        assert lower >= -1e-12
        details.append(f"{better} vs {baseline}: +{float(np.mean(diffs)):.4f}")
    assert elapsed < 600.0
    _report(9, f"mean J gaps {', '.join(details)}; sweep took {elapsed:.0f}s")


def test_criterion_10_precision_on_common_hits(detection_sweep):
    trials, _ = detection_sweep
    details = []
    for worse, better in (("omp", "music-noise"), ("omp", "ols-imusic")):
        diffs = np.array(
            [
                t.outcomes[worse].rmse - t.outcomes[better].rmse
                for t in trials
                if t.outcomes[worse].rmse is not None
                and t.outcomes[better].rmse is not None
            ]
        )
        assert diffs.size >= 100
        lower = _bootstrap_mean_lower(diffs)
        assert float(np.mean(diffs)) >= 0.0
        assert lower >= -1e-12
        details.append(f"{better} beats {worse} by {float(np.mean(diffs)):.4f}")
    _report(10, f"common-hit RMSE: {'; '.join(details)}")


# ---------------------------------------------------------------------------
# 11. Subspace-residual methods are faster; the FFT evaluator is faster.
# ---------------------------------------------------------------------------


def _scenario_covariance(M: int, seed: int) -> np.ndarray:
    cfg = ScenarioConfig(
        targets=8, antennas=M, subcarriers=64, symbols=4, snr_db=40.0,
        grid_points=2048, seed=seed,
    )
    rng = trial_rng(cfg.seed, 0)
    truth = draw_targets(cfg, rng)
    return sample_covariance(synthesize_observation(truth, cfg, rng).Y)


def test_criterion_11_timing_trends():
    N, K = 2048, 8
    pair_details = []
    for M in (16, 32, 64):
        grid = make_grid(N, M)
        R = _scenario_covariance(M, seed=1100 + M)
        tasks = {
            m: (lambda m=m: estimate_method(m, R, K, grid, "fft"))
            for m in ("omp", "omp-imusic", "ols", "ols-imusic")
        }
        meds = _interleaved_medians(tasks, repeats=9)
        assert meds["omp-imusic"] < meds["omp"]
        assert meds["ols-imusic"] < meds["ols"]
        pair_details.append(
            f"M={M}: omp {meds['omp'] / meds['omp-imusic']:.2f}x, "
            f"ols {meds['ols'] / meds['ols-imusic']:.2f}x"
        )

    M = 64
    grid = make_grid(N, M)
    R = _scenario_covariance(M, seed=1164)
    worst_ratio = math.inf
    for method in METHOD_IDS:
        meds = _interleaved_medians(
            {
                "fft": lambda m=method: estimate_method(m, R, K, grid, "fft"),
                "direct": lambda m=method: estimate_method(m, R, K, grid, "direct"),
            },
            repeats=15,
        )
        assert meds["fft"] < meds["direct"], method
        worst_ratio = min(worst_ratio, meds["direct"] / meds["fft"])
    _report(
        11,
        f"{'; '.join(pair_details)}; fft beats direct for all {len(METHOD_IDS)} "
        f"methods at M=64 (worst margin {worst_ratio:.2f}x)",
    )


# ---------------------------------------------------------------------------
# 12. Weighted and unweighted variants usually select the same angles.
# ---------------------------------------------------------------------------


def test_criterion_12_weighted_variants_match_unweighted_selections():
    cfg = ScenarioConfig(
        targets=8, antennas=16, subcarriers=512, symbols=10, snr_db=40.0,
        grid_points=256, seed=0,
    )
    methods = ("omp", "ols", "omp-iwmusic", "ols-iwmusic")
    agree = {"omp": 0, "ols": 0}
    trials = 500
    for t in range(trials):
        res = run_trial(cfg, t, methods)
        est = {m: np.sort(res.outcomes[m].estimates) for m in methods}
        agree["omp"] += int(np.array_equal(est["omp"], est["omp-iwmusic"]))
        agree["ols"] += int(np.array_equal(est["ols"], est["ols-iwmusic"]))
    frac_omp = agree["omp"] / trials
    frac_ols = agree["ols"] / trials
    assert frac_omp >= 0.90
    assert frac_ols >= 0.90
    _report(
        12,
        f"identical DOA sets in {frac_omp:.1%} (omp-iwmusic) and "
        f"{frac_ols:.1%} (ols-iwmusic) of {trials} trials",
    )


# ---------------------------------------------------------------------------
# 13. Scene diagnostics grow with array size and subcarrier count.
# ---------------------------------------------------------------------------


def test_criterion_13_diagnostic_means_grow_with_array_and_bandwidth():
    trials = 200

    def mean_diagnostics(cfg: ScenarioConfig) -> tuple:
        t_vals, s_vals = [], []
        for t in range(trials):
            rng = trial_rng(cfg.seed, t)
            truth = draw_targets(cfg, rng)
            obs = synthesize_observation(truth, cfg, rng)
            d = diagnostics(truth, obs.coeffs @ obs.coeffs.conj().T, cfg.antennas)
            t_vals.append(d.t_metric)
            s_vals.append(d.s_metric)
        return float(np.mean(t_vals)), float(np.mean(s_vals))

    t_means = [
        mean_diagnostics(
            ScenarioConfig(
                targets=4, antennas=M, subcarriers=64, symbols=4, snr_db=40.0, seed=13
            )
        )[0]
        for M in (8, 16, 32)
    ]
    assert t_means[0] < t_means[1] < t_means[2]

    s_means = [
        mean_diagnostics(
            ScenarioConfig(
                targets=8, antennas=16, subcarriers=Q, symbols=10, snr_db=40.0, seed=14
            )
        )[1]
        for Q in (64, 256, 512)
    ]
    assert s_means[0] < s_means[1] < s_means[2]
    _report(
        13,
        f"mean T {t_means[0]:.3f} < {t_means[1]:.3f} < {t_means[2]:.3f} over M; "
        f"mean S {s_means[0]:.3f} < {s_means[1]:.3f} < {s_means[2]:.3f} over Q",
    )


# ---------------------------------------------------------------------------
# 14. Module property suites: presence plus headline spot-checks.
# ---------------------------------------------------------------------------


def test_criterion_14_module_property_spot_checks():
    # The full property suites live in the per-module test files and run in
    # this same pytest session; assert they are all present, then re-assert
    # one headline property from each family directly.
    suite = {p.name for p in Path(__file__).parent.glob("test_*.py")}
    for name in (
        "test_linalg.py",
        "test_scenario.py",
        "test_subspace.py",
        "test_greedy.py",
        "test_gimusic.py",
        "test_fastgrid.py",
        "test_order.py",
        "test_metrics.py",
        "test_bench.py",
    ):
        assert name in suite, f"missing module suite {name}"

    rng = np.random.default_rng(1414)

    # Projector algebra: idempotent, Hermitian, complementary.
    P, Pc = projectors(steering_matrix(np.array([-0.5, 0.1, 0.62]), 10))
    np.testing.assert_allclose(P @ P, P, atol=1e-12)
    np.testing.assert_allclose(P.conj().T, P, atol=1e-12)
    np.testing.assert_allclose(P + Pc, np.eye(10), atol=1e-12)

    # Eigendecomposition reconstruction and unitarity.
    R = sample_covariance(_random_observation(rng, 10, 40))
    w, V = hermitian_evd(R)
    np.testing.assert_allclose(
        (V * w) @ V.conj().T,
        R,
        atol=1e-12 * float(np.linalg.norm(R)),
        rtol=1e-10,
    )
    np.testing.assert_allclose(
        V.conj().T @ V, np.eye(10), atol=1e-12
    )

    # Subspace complementarity.
    dec = partition(R, 3)
    np.testing.assert_allclose(
        dec.S.conj().T @ dec.G, np.zeros((3, 7)), atol=1e-12
    )
    np.testing.assert_allclose(
        dec.S @ dec.S.conj().T + dec.G @ dec.G.conj().T, np.eye(10), atol=1e-12
    )

    # Benchmark determinism: identical metrics for identical seeds.
    cfg = ScenarioConfig(
        targets=3, antennas=8, subcarriers=32, symbols=2, snr_db=20.0,
        grid_points=256, seed=77,
    )
    first = run_trial(cfg, 0, ("ols-imusic", "omp"))
    second = run_trial(cfg, 0, ("ols-imusic", "omp"))
    for m in ("ols-imusic", "omp"):
        np.testing.assert_array_equal(
            first.outcomes[m].estimates, second.outcomes[m].estimates
        )
        assert first.outcomes[m].youden_j == second.outcomes[m].youden_j
    assert first.t_metric == second.t_metric
    assert first.s_metric == second.s_metric

    # Diagonality endpoints.
    assert diagonality_score(np.eye(6)) == 1.0
    assert diagonality_score(np.ones((6, 6))) == 0.0

    # Assignment optimality spot-check against brute force.
    true_u = np.array([-0.4, 0.0, 0.45])
    est_u = np.array([0.02, -0.38, 0.4, 0.9])
    assoc = associate(true_u, est_u)
    matched_cost = sum(err for _, _, err in assoc.pairs)
    brute = min(
        sum(abs(true_u[i] - est_u[perm[i]]) for i in range(true_u.size))
        for perm in permutations(range(est_u.size), true_u.size)
    )
    assert matched_cost <= brute + 1e-12
    _report(14, "module suites present; headline properties re-verified")
