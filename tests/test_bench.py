"""Tests for the Monte Carlo harness, the config parser, and the CLI."""

import errno
import math
import multiprocessing
import os
import re
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from time import perf_counter, sleep

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import doalab.bench as bench
from doalab import BLAS_THREAD_VARS
from doalab.bench import (
    ORDER_CRITERIA,
    RESULT_FIELDS,
    ResultRow,
    ResultTable,
    SweepSpec,
    emit_csv,
    load_results,
    run_sweep,
    run_trial,
    trimmed_mean,
)
from doalab.cli import main
from doalab.config import ConfigError, parse_config
from doalab.fastgrid import make_grid, objective_values
from doalab.linalg import hermitian_evd
from doalab.methods import METHOD_IDS, estimate_method
from doalab.scenario import (
    ScenarioConfig,
    coefficient_gram,
    draw_covariance,
    draw_targets,
    steering_matrix,
    synthesize_observation,
    trial_rng,
)
from doalab.subspace import partition, sample_covariance


def small_cfg(**overrides):
    base = dict(
        targets=2,
        antennas=8,
        subcarriers=32,
        symbols=4,
        snr_db=20.0,
        grid_points=256,
        seed=7,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def metric_fields(row):
    """Every ResultRow field except the machine-dependent timing column."""
    return {
        name: getattr(row, name) for name in RESULT_FIELDS if name != "mean_time_ms"
    }


# ---------------------------------------------------------------- averaging


def test_trimmed_mean_matches_scipy():
    rng = np.random.default_rng(3)
    xs = rng.exponential(size=40)
    assert trimmed_mean(xs) == pytest.approx(stats.trim_mean(xs, 0.05))


def test_trimmed_mean_drops_extremes():
    # 5% of 20 values = one from each end: the outliers vanish entirely.
    xs = [1e9] + [1.0] * 18 + [-1e9]
    assert trimmed_mean(xs) == pytest.approx(1.0)
    assert trimmed_mean([]) != trimmed_mean([])  # nan


# ---------------------------------------------------------------- run_trial


def test_run_trial_is_deterministic():
    cfg = small_cfg()
    a = run_trial(cfg, 4, ("music-signal", "omp"))
    b = run_trial(cfg, 4, ("music-signal", "omp"))
    np.testing.assert_array_equal(a.truth.doas, b.truth.doas)
    for method in ("music-signal", "omp"):
        np.testing.assert_array_equal(
            a.outcomes[method].estimates, b.outcomes[method].estimates
        )
        assert a.outcomes[method].youden_j == b.outcomes[method].youden_j
    assert a.t_metric == b.t_metric and a.s_metric == b.s_metric


def test_run_trial_streams_are_separated():
    cfg = small_cfg()
    t0 = run_trial(cfg, 0, ("music-signal",))
    t1 = run_trial(cfg, 1, ("music-signal",))
    assert not np.array_equal(t0.truth.doas, t1.truth.doas)


def test_run_trial_shares_model_order_across_methods():
    cfg = small_cfg(snr_db=40.0, seed=5)
    tr = run_trial(
        cfg,
        0,
        ("music-signal", "omp", "ols-imusic"),
        criteria=("rank-aic", "rank-aic", "true-k"),
    )
    # Methods under the same criterion see the identical estimated count;
    # at 40 dB the eigenvalue criterion recovers the true count too.
    assert tr.outcomes["music-signal"].k_hat == tr.outcomes["omp"].k_hat == 2
    assert tr.outcomes["ols-imusic"].k_hat == cfg.targets


def test_run_trial_times_only_the_estimate():
    tr = run_trial(small_cfg(), 0, ("music-signal",))
    out = tr.outcomes["music-signal"]
    assert 0.0 < out.seconds < 1.0
    assert out.error is None
    assert 0.0 < tr.t_metric <= 1.0 and 0.0 < tr.s_metric <= 1.0


def test_noiseless_single_target_every_method_exact():
    # On a coarse grid every estimator resolves a lone noiseless target to
    # the same nearest grid cell, so all methods agree bitwise and score a
    # perfect J.
    cfg = small_cfg(
        targets=1, snr_db=math.inf, grid_points=16, max_range_m=6.0, seed=3
    )
    tr = run_trial(cfg, 0, METHOD_IDS)
    estimates = {tuple(o.estimates) for o in tr.outcomes.values()}
    assert len(estimates) == 1
    for out in tr.outcomes.values():
        assert out.youden_j == 1.0
        assert out.hit_rate == 1.0 and out.fa_rate == 0.0

    spec = SweepSpec(
        parameter="snr_db",
        values=(math.inf,),
        methods=METHOD_IDS,
        base=cfg,
        trials=1,
    )
    table = run_sweep(spec, serial=True)
    assert len(table) == len(METHOD_IDS)
    assert all(row.youden_j == 1.0 for row in table)


@pytest.fixture(scope="module")
def campaign_scene():
    """Covariance and grid of the K=8, M=16, Q=512, D=10, 20 dB scene, trial 0."""
    cfg = ScenarioConfig(
        targets=8, antennas=16, subcarriers=512, symbols=10, snr_db=20.0, seed=1
    )
    rng = trial_rng(cfg.seed, 0)
    obs = synthesize_observation(draw_targets(cfg, rng), cfg, rng)
    return sample_covariance(obs.Y), make_grid(cfg.grid_points, cfg.antennas)


@pytest.mark.parametrize("evaluator", ["fft", "direct"])
@pytest.mark.parametrize("method", METHOD_IDS)
def test_estimates_do_not_depend_on_covariance_scale(campaign_scene, method, evaluator):
    R, grid = campaign_scene
    ref = estimate_method(method, R, 8, grid, evaluator)
    for c in (1e-24, 1e-12, 1e12, 1e24):
        np.testing.assert_array_equal(
            estimate_method(method, c * R, 8, grid, evaluator), ref, err_msg=f"c={c}"
        )


@pytest.mark.parametrize("evaluator", ["fft", "direct"])
@pytest.mark.parametrize("method", METHOD_IDS)
def test_zero_covariance_yields_distinct_grid_angles(method, evaluator):
    # R = 0 leaves every score tied or degenerate; greedy norm forms must still
    # pass over the angles already selected instead of picking grid point 0 again.
    grid = make_grid(256, 8)
    est = estimate_method(method, np.zeros((8, 8), dtype=complex), 3, grid, evaluator)
    assert est.size == 3 and len(set(est)) == 3
    assert np.isin(est, grid.angles).all()


# Rows whose operand vanishes at R = 0, so every score ties at zero.  The
# music rows score an eigenbasis of identity columns, ||S^H a||^2 = K, which
# ties exactly only in the fft path's quadratic form.
ZERO_OPERAND_ROWS = ("wmusic-signal", "wmusic-noise", "omp", "ols", "omp-iwmusic", "ols-iwmusic")
TIED_AT_ZERO = [(m, e) for m in ZERO_OPERAND_ROWS for e in ("fft", "direct")] + [
    ("music-signal", "fft"),
    ("music-noise", "fft"),
]


@pytest.mark.parametrize("K", [3, 6])
@pytest.mark.parametrize("method,evaluator", TIED_AT_ZERO)
def test_zero_covariance_ties_pick_the_lowest_grid_angles(method, evaluator, K):
    grid = make_grid(64, 8)
    est = estimate_method(method, np.zeros((8, 8), dtype=complex), K, grid, evaluator)
    np.testing.assert_array_equal(est, grid.angles[:K])


def default_scene_covariance(trial: int) -> np.ndarray:
    """The default scene's trial covariance, drawn as run_trial draws it."""
    cfg = ScenarioConfig()
    rng = trial_rng(1, trial)
    truth = draw_targets(cfg, rng)
    return draw_covariance(truth, coefficient_gram(truth, cfg), cfg, rng)


def grid_indices(est: np.ndarray, N: int) -> np.ndarray:
    return np.rint((est + 1.0) * N / 2).astype(int)


@pytest.mark.parametrize("evaluator", ["fft", "direct"])
def test_spectral_peaks_wrap_at_the_grid_ends(evaluator):
    # The peak at index 1947 has a main lobe 128 cells wide, so its skirt
    # crosses u = +-1 and index 0 beats its right neighbor.  Index 0 is no
    # peak, because a(-1) = a(+1) makes index N-1 its left neighbor.
    cfg = ScenarioConfig()
    grid = make_grid(cfg.grid_points, cfg.antennas)
    R = default_scene_covariance(0)
    est = estimate_method("music-signal", R, cfg.targets, grid, evaluator)
    picks = grid_indices(est, grid.N)
    assert 1947 in picks and 0 not in picks
    v = objective_values(partition(R, cfg.targets).S, grid, "norm", evaluator)
    assert all(v[p] > v[p - 1] and v[p] > v[(p + 1) % grid.N] for p in picks)


@pytest.fixture(scope="module")
def equivariance_scenes():
    """(R, s) for 24 default-scene trials, each with a seeded grid shift s."""
    shifts = np.random.default_rng(7).integers(1, ScenarioConfig().grid_points, 24)
    return [(default_scene_covariance(t), int(s)) for t, s in enumerate(shifts)]


@pytest.mark.parametrize("evaluator", ["fft", "direct"])
@pytest.mark.parametrize("method", METHOD_IDS)
def test_estimates_shift_and_mirror_with_the_scene(equivariance_scenes, method, evaluator):
    # D = diag(exp(j pi (2s/N) m)) steers a(u) to a(u + 2s/N): D R D^H is
    # the scene moved s grid cells around the circle, p -> p + s mod N.
    # conj(a(u)) = a(-u): conj(R) is the scene mirrored, p -> N - p mod N.
    cfg = ScenarioConfig()
    N, M, K = cfg.grid_points, cfg.antennas, cfg.targets
    grid = make_grid(N, M)
    for R, s in equivariance_scenes:
        picks = np.sort(grid_indices(estimate_method(method, R, K, grid, evaluator), N))
        d = np.exp(1j * np.pi * (2.0 * s / N) * np.arange(M))
        est = estimate_method(method, d[:, None] * R * d.conj(), K, grid, evaluator)
        np.testing.assert_array_equal(
            np.sort(grid_indices(est, N)), np.sort((picks + s) % N), err_msg=f"shift {s}"
        )
        est = estimate_method(method, R.conj(), K, grid, evaluator)
        np.testing.assert_array_equal(
            np.sort(grid_indices(est, N)), np.sort((N - picks) % N), err_msg="mirror"
        )


CONTRACT_CASES = ("scaled", "k-max", "low-rank", "zero", "coincident")


@st.composite
def contract_scenes(draw):
    """(case, R, K, grid): one stress case of the estimate contract.

    "scaled" multiplies R by 1e-250 or 1e250; "k-max" asks for K = M-1;
    "low-rank" is noiseless with fewer targets than K; "zero" is R = 0;
    "coincident" puts two or more targets on one angle.
    """
    case = draw(st.sampled_from(CONTRACT_CASES))
    M = draw(st.integers(3, 16))
    K = M - 1 if case == "k-max" else draw(st.integers(2 if case == "low-rank" else 1, M - 1))
    grid = make_grid(draw(st.sampled_from((2 * M, 4 * M, 256))), M)
    if case == "zero":
        return case, np.zeros((M, M), dtype=complex), K, grid
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if case == "low-rank":
        angles = rng.uniform(-1.0, 1.0, draw(st.integers(1, K - 1)))
    elif case == "coincident":
        distinct = rng.uniform(-1.0, 1.0, draw(st.integers(1, max(1, K - 1))))
        angles = distinct[np.arange(max(K, 2)) % distinct.size]
    else:
        angles = rng.uniform(-1.0, 1.0, K)
    A = steering_matrix(angles, M)
    noise = 0.0 if case == "low-rank" else draw(st.sampled_from((0.0, 1e-3, 1.0)))
    R = (A * 10.0 ** rng.uniform(-1.0, 1.0, angles.size)) @ A.conj().T + noise * np.eye(M)
    if case == "scaled":
        R = R * draw(st.sampled_from((1e-250, 1e250)))
    return case, 0.5 * (R + R.conj().T), K, grid


@pytest.mark.parametrize("evaluator", ["fft", "direct"])
@pytest.mark.parametrize("method", METHOD_IDS)
@settings(max_examples=40, deadline=None)
@given(scene=contract_scenes())
def test_estimates_meet_the_contract(method, evaluator, scene):
    # K distinct angles of the grid, or the near-duplicate selection error
    # estimate_method documents; never a silent guess or a numpy warning
    # (the suite's filterwarnings makes a RuntimeWarning an error).
    case, R, K, grid = scene
    try:
        est = estimate_method(method, R, K, grid, evaluator)
    except np.linalg.LinAlgError as exc:
        assert "rank-deficient selection" in str(exc), case
        return
    assert est.shape == (K,) and len(set(est.tolist())) == K, case
    assert np.isin(est, grid.angles).all(), case


def test_hermitian_guard_holds_at_extreme_scales(campaign_scene):
    # Frobenius norms of the raw matrix overflow at 1e300 and underflow at
    # 1e-300; the guard compares at unit scale, so it neither passes these
    # non-Hermitian matrices nor warns on a legitimate extreme covariance.
    rng = np.random.default_rng(5)
    A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    for c in (1e300, 1e-200, 1e-300):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_evd(c * A)
    R, grid = campaign_scene
    for method in METHOD_IDS:
        for evaluator in ("fft", "direct"):
            np.testing.assert_array_equal(
                estimate_method(method, 1e300 * R, 8, grid, evaluator),
                estimate_method(method, R, 8, grid, evaluator),
                err_msg=f"{method}/{evaluator}",
            )


def test_run_trial_survives_near_collinear_hybrid_selection():
    # Hybrid order runs OLS up to K = M-1 = 15; on this trial the selected
    # steering matrix is ill-conditioned enough that a normal-equations
    # projector would reject it, and the exception escaped run_trial.
    cfg = ScenarioConfig(
        targets=8, antennas=16, subcarriers=256, symbols=4, snr_db=40.0, seed=1
    )
    tr = run_trial(cfg, 11, METHOD_IDS, ("hybrid",) * len(METHOD_IDS), "direct")
    for out in tr.outcomes.values():
        assert out.error is None
        assert out.estimates.size == out.k_hat


def test_ols_completes_on_near_collinear_true_k_selection():
    cfg = ScenarioConfig(
        targets=8, antennas=16, subcarriers=512, symbols=10, snr_db=20.0, seed=209
    )
    out = run_trial(cfg, 121, ("ols",)).outcomes["ols"]
    assert out.error is None
    assert out.estimates.size == 8


# ---------------------------------------------------------------- run_sweep


def sweep_spec(**overrides):
    base = dict(
        parameter="snr_db",
        values=(15.0, 25.0),
        methods=("music-signal", "omp"),
        base=small_cfg(),
        trials=3,
    )
    base.update(overrides)
    return SweepSpec(**base)


def test_run_sweep_rows_and_order():
    spec = sweep_spec(parameter="targets", values=(2, 1), order_criterion="true-k")
    table = run_sweep(spec, serial=True)
    assert len(table) == 4
    keys = [(r.sweep_value, r.method) for r in table]
    assert keys == sorted(keys)
    for row in table:
        assert row.sweep_param == "targets"
        assert row.trials == 3
        assert row.criterion == "true-k"
        assert row.evaluator == "fft"
        assert row.seed == spec.base.seed
        # Under true-k the shared count is the swept target count itself.
        assert row.mean_k_hat == row.sweep_value


def test_run_sweep_metric_columns_are_reproducible():
    spec = sweep_spec()
    a = run_sweep(spec, serial=True)
    b = run_sweep(spec, serial=True)
    assert [metric_fields(r) for r in a] == [metric_fields(r) for r in b]


def test_run_sweep_parallel_matches_serial():
    # The caller runs trials beside workers - 1 children; every count must
    # give the serial sweep's metric columns in the serial row order.  Eight
    # trials per value leave the caller a share beside each child's chunks.
    spec = sweep_spec(trials=8)
    serial = run_sweep(spec, serial=True)
    for workers in (1, 2, 3):
        parallel = run_sweep(spec, workers=workers)
        assert [metric_fields(r) for r in serial] == [metric_fields(r) for r in parallel]


def test_run_sweep_more_workers_than_trials():
    spec = sweep_spec(values=(20.0,), trials=2)
    serial = run_sweep(spec, serial=True)
    pooled = run_sweep(spec, workers=8)
    assert [metric_fields(r) for r in pooled] == [metric_fields(r) for r in serial]


def test_run_sweep_trial_error_propagates_promptly():
    # 63 targets with a one-cell gap on a 128-point grid exhaust the
    # rejection sampler, so every trial at the first sweep value raises;
    # the thousands of cheap trials behind it must not run first.
    base = ScenarioConfig(
        targets=1, antennas=64, subcarriers=16, symbols=2, grid_points=128, seed=3
    )
    spec = sweep_spec(
        parameter="targets", values=(63, 1), methods=("music-signal",),
        base=base, trials=20_000,
    )
    start = perf_counter()
    with pytest.raises(ValueError, match="could not draw 63 angles"):
        run_sweep(spec, workers=2)
    elapsed = perf_counter() - start
    # The child finishes its current chunk and exits, reaped by the pool's
    # thread; poll rather than join it from here, which would race that.
    deadline = start + 60.0
    while multiprocessing.active_children() and perf_counter() < deadline:
        sleep(0.05)
    assert not multiprocessing.active_children()
    assert elapsed < 5.0  # the 20 000 trials at targets=1 take ~2 ms each
    # With two trials per value both failing trials go to the child's first
    # chunk and the caller has none: the child's error must surface too.
    with pytest.raises(ValueError, match="could not draw 63 angles"):
        run_sweep(replace(spec, trials=2), workers=2)


def test_run_sweep_leaves_no_child_or_pool_thread_behind():
    # A normal return waits for the pool: no child or pool thread is left to
    # sit beside the next sweep's fork.  (A child an earlier test's failed
    # sweep left to finish in the background may still be running.)
    children = set(multiprocessing.active_children())
    threads = set(threading.enumerate())
    run_sweep(sweep_spec(values=(20.0,), trials=6), workers=2)
    assert not set(multiprocessing.active_children()) - children
    assert not set(threading.enumerate()) - threads


def test_run_sweep_uses_the_platforms_default_start_method(monkeypatch):
    contexts = []

    class Pool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, mp_context=None, **kwargs):
            contexts.append(mp_context)
            super().__init__(max_workers, mp_context, **kwargs)

    monkeypatch.setattr(bench, "ProcessPoolExecutor", Pool)
    run_sweep(sweep_spec(values=(20.0,), trials=2), workers=2)
    assert contexts == [None]


def test_run_sweep_pins_blas_threads_in_spawned_children(monkeypatch):
    # Called from the library, not the CLI: run_sweep pins the BLAS thread
    # variables before any child starts, so every child sees "1".  A spawned
    # child's BLAS loads with them; a forked child sees them too, but its
    # BLAS keeps the thread count the caller's loaded with.
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    seen = {}

    class Pool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen.update({var: self.submit(os.getenv, var).result() for var in BLAS_THREAD_VARS})

    monkeypatch.setattr(bench, "ProcessPoolExecutor", Pool)
    run_sweep(sweep_spec(values=(20.0,), trials=2), workers=2)
    assert seen == dict.fromkeys(BLAS_THREAD_VARS, "1")


def test_run_trial_replays_in_a_spawned_child():
    # A trial's covariance draw and every outcome depend on (seed, trial)
    # only: the same trial run in a fresh spawned interpreter is identical.
    # Where run_sweep forks its children (Linux), this is the only check of
    # a trial replayed in a fresh interpreter.
    cfg = small_cfg(targets=3, snr_db=10.0)
    args = (cfg, 5, METHOD_IDS, None, "fft")
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        theirs = pool.submit(run_trial, *args).result()
    mine = run_trial(*args)
    assert (mine.t_metric, mine.s_metric) == (theirs.t_metric, theirs.s_metric)
    for method, out in mine.outcomes.items():
        other = theirs.outcomes[method]
        np.testing.assert_array_equal(out.estimates, other.estimates)
        assert (out.hit_rate, out.fa_rate, out.youden_j, out.rmse, out.error) == (
            other.hit_rate, other.fa_rate, other.youden_j, other.rmse, other.error
        )


def test_run_sweep_evaluators_agree_on_metrics():
    serial = run_sweep(sweep_spec(evaluator="fft"), serial=True)
    direct = run_sweep(sweep_spec(evaluator="direct"), serial=True)
    for a, b in zip(serial, direct):
        fa, fb = metric_fields(a), metric_fields(b)
        fa.pop("evaluator"), fb.pop("evaluator")
        assert fa == fb


def test_run_sweep_records_failures_without_aborting(monkeypatch, capsys):
    real = bench.estimate_method

    def flaky(method, R, K, grid, evaluator="fft"):
        if method == "ols":
            raise RuntimeError("boom")
        return real(method, R, K, grid, evaluator)

    monkeypatch.setattr(bench, "estimate_method", flaky)
    spec = sweep_spec(values=(20.0,), methods=("music-signal", "ols"))
    table = run_sweep(spec, serial=True)

    assert len(table.warnings) == 1
    assert "ols" in table.warnings[0] and "3/3" in table.warnings[0]
    assert "warning:" in capsys.readouterr().err

    by_method = {row.method: row for row in table}
    failed = by_method["ols"]
    assert math.isnan(failed.youden_j) and math.isnan(failed.mean_time_ms)
    assert failed.trials == 3
    healthy = by_method["music-signal"]
    assert not math.isnan(healthy.youden_j)
    # RMSE is taken over commonly hit targets; with one method dead there is
    # no common hit, so the column is empty for everyone at this sweep point.
    assert math.isnan(failed.rmse) and failed.rmse_coverage == 0.0
    assert math.isnan(healthy.rmse) and healthy.rmse_coverage == 0.0


def test_run_trial_captures_estimator_errors(monkeypatch):
    def broken(method, R, K, grid, evaluator="fft"):
        raise RuntimeError("boom")

    monkeypatch.setattr(bench, "estimate_method", broken)
    tr = run_trial(small_cfg(), 0, ("omp",))
    out = tr.outcomes["omp"]
    assert out.error == "RuntimeError: boom"
    assert out.estimates.size == 0
    assert math.isnan(out.seconds)
    assert out.youden_j == 0.0  # no detections: hit 0, fa 0


# ---------------------------------------------------------------- validation


@pytest.mark.parametrize(
    "overrides,message",
    [
        (dict(parameter="bandwidth"), "sweep parameter"),
        (dict(values=()), "non-empty"),
        (dict(methods=()), "non-empty"),
        (dict(methods=("omp", "omp")), "unique"),
        (dict(methods=("omp", "grid-search")), "method id"),
        (dict(trials=0), "trials"),
        (dict(order_criterion=("true-k",)), "unknown order criterion"),
        (dict(order_criterion="oracle"), "order criterion"),
        (dict(evaluator="gpu"), "evaluator"),
        (dict(base=small_cfg(targets=9)), "targets"),
    ],
)
def test_sweep_spec_validation(overrides, message):
    with pytest.raises(ValueError, match=message):
        sweep_spec(**overrides).validate()


@pytest.mark.parametrize(
    "args,message",
    [
        ((METHOD_IDS, ("true-k",)), "one order criterion per method"),
        ((("omp", "nope"), None), "unknown method id"),
        ((("omp", "omp"), None), "unique"),
        ((("omp",), ("oracle",)), "order criterion"),
        ((("omp",), None, "fftw"), "unknown evaluator"),
    ],
)
def test_run_trial_rejects_what_no_trial_can_run(args, message):
    # Before, zip() silently dropped the methods past a short criteria
    # tuple, an unknown method or evaluator became a per-method failure and
    # an unknown criterion a KeyError.
    with pytest.raises(ValueError, match=message):
        run_trial(small_cfg(), 0, *args)


def test_sweep_spec_rejects_a_value_its_field_type_changes(no_trials):
    # int(2.5) would run K = 2 and write sweep_value 2.5.
    spec = sweep_spec(parameter="targets", values=(1, 2.5))
    with pytest.raises(ValueError, match="targets value 2.5 is not a valid int"):
        run_sweep(spec, serial=True)
    sweep_spec(parameter="targets", values=(1, 2.0)).validate()


def test_estimated_order_zero_scores_no_detection():
    # At -30 dB rank-aic finds no target on this trial: every method returns
    # no angle, which scores hit, false-alarm and J as 0 and leaves the
    # common-hit RMSE undefined, without an error.
    cfg = small_cfg(targets=1, subcarriers=8, symbols=1, snr_db=-30.0, grid_points=64, seed=3)
    tr = run_trial(cfg, 0, METHOD_IDS, ("rank-aic",) * len(METHOD_IDS))
    for method, out in tr.outcomes.items():
        assert out.k_hat == 0 and out.estimates.size == 0, method
        assert (out.hit_rate, out.fa_rate, out.youden_j) == (0.0, 0.0, 0.0), method
        assert out.rmse is None and out.error is None, method


def test_worker_count_sources(monkeypatch):
    assert bench._worker_count(3) == 3
    monkeypatch.setenv("DOALAB_THREADS", "5")
    assert bench._worker_count(None) == 5
    assert bench._worker_count(2) == 2  # explicit argument wins
    monkeypatch.setenv("DOALAB_THREADS", "zero")
    with pytest.raises(ValueError, match="DOALAB_THREADS"):
        bench._worker_count(None)
    monkeypatch.delenv("DOALAB_THREADS")
    assert bench._worker_count(None) >= 1


def test_worker_count_defaults_to_the_cpus_this_process_may_run_on(monkeypatch):
    # taskset -c 0, or a cpuset-limited container: one usable CPU of eight.
    monkeypatch.delenv("DOALAB_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert bench._worker_count(None) == 1
    assert bench._worker_count(3) == 3
    monkeypatch.setenv("DOALAB_THREADS", "2")
    assert bench._worker_count(None) == 2
    # Where the platform has no affinity call, the CPU count.
    monkeypatch.delenv("DOALAB_THREADS")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert bench._worker_count(None) == 8


# ---------------------------------------------------------------- CSV


def one_row(**overrides):
    fields = dict(
        sweep_param="snr_db",
        sweep_value=20.0,
        method="omp",
        criterion="true-k",
        evaluator="fft",
        trials=3,
        youden_j=1.0 / 3.0,
        hit_rate=0.75,
        fa_rate=0.25,
        rmse=0.001234567891,
        rmse_coverage=1.0,
        mean_time_ms=1.5,
        t_metric=0.9,
        s_metric=0.8,
        mean_k_hat=2.0,
        seed=7,
    )
    fields.update(overrides)
    return ResultRow(**fields)


def test_emit_csv_single_row(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv(ResultTable([one_row()]), str(path))
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 2
    assert lines[0] == ",".join(RESULT_FIELDS)
    cells = lines[1].split(",")
    assert len(cells) == len(RESULT_FIELDS)
    # Floats carry nine significant digits; integers stay integers.
    assert cells[RESULT_FIELDS.index("youden_j")] == "0.333333333"
    assert cells[RESULT_FIELDS.index("rmse")] == "0.00123456789"
    assert cells[RESULT_FIELDS.index("trials")] == "3"
    assert cells[RESULT_FIELDS.index("seed")] == "7"


def test_emit_csv_orders_rows_deterministically(tmp_path):
    rows = [
        one_row(sweep_value=30.0, method="omp"),
        one_row(sweep_value=20.0, method="ols"),
        one_row(sweep_value=20.0, method="music-signal"),
        one_row(sweep_value=30.0, method="music-noise"),
    ]
    path = tmp_path / "out.csv"
    emit_csv(ResultTable(rows), str(path))
    loaded = load_results(str(path))
    keys = [(r.sweep_value, r.method) for r in loaded]
    assert keys == sorted(keys)


def test_emit_csv_round_trip(tmp_path):
    spec = sweep_spec(trials=2)
    table = run_sweep(spec, serial=True)
    path = tmp_path / "sweep.csv"
    emit_csv(table, str(path))
    loaded = load_results(str(path))
    assert len(loaded) == len(table)
    for orig, back in zip(table, loaded):
        for name in RESULT_FIELDS:
            a, b = getattr(orig, name), getattr(back, name)
            if isinstance(a, str) or isinstance(a, int):
                assert a == b
            else:
                assert b == pytest.approx(a, rel=1e-8, abs=1e-12, nan_ok=True)


def test_emit_csv_rejects_empty_table(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        emit_csv(ResultTable(), str(tmp_path / "x.csv"))


def test_emit_csv_unwritable_path_raises_oserror(tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
    with pytest.raises(OSError, match="no"):
        emit_csv(ResultTable([one_row()]), str(missing_dir))


def test_load_results_rejects_foreign_header(tmp_path):
    path = tmp_path / "alien.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        load_results(str(path))
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        load_results(str(path))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda cells: cells[:-2], "expected 16 fields, got 14"),
        (lambda cells: cells + ["1"], "expected 16 fields, got 17"),
        (lambda cells: [], "expected 16 fields, got 0"),
        (lambda cells: cells[:6] + ["high"] + cells[7:], "youden_j is not float: 'high'"),
        (lambda cells: cells[:5] + ["3.5"] + cells[6:], "trials is not int: '3.5'"),
    ],
    ids=["short-row", "long-row", "blank-line", "bad-float", "bad-int"],
)
def test_load_results_rejects_malformed_rows(tmp_path, edit, message):
    path = tmp_path / "bad.csv"
    emit_csv(ResultTable([one_row(method="ols"), one_row(method="omp")]), str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = ",".join(edit(lines[2].split(",")))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_results(str(path))
    assert str(info.value) == f"{path}, line 3: {message}"


# ---------------------------------------------------------------- config


GOOD_CONFIG = """
[scenario]
targets = 2
antennas = 8
subcarriers = 32
symbols = 4
snr_db = 20
grid_points = 256
seed = 3

[sweep]
parameter = snr_db
values = 10, 20, inf   # noiseless endpoint
trials = 2
methods = music-signal, omp
order_criterion = rank-aic
evaluator = direct
"""


def write_config(tmp_path, text):
    path = tmp_path / "sweep.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_config_happy_path(tmp_path):
    spec = parse_config(write_config(tmp_path, GOOD_CONFIG))
    assert spec.parameter == "snr_db"
    assert spec.values == (10.0, 20.0, math.inf)
    assert spec.methods == ("music-signal", "omp")
    assert spec.trials == 2
    assert spec.order_criterion == "rank-aic"
    assert spec.evaluator == "direct"
    assert spec.base.targets == 2 and spec.base.seed == 3
    spec.validate()


def test_parse_config_defaults(tmp_path):
    text = "[sweep]\nparameter = targets\nvalues = 1, 2\nmethods = ols\n"
    spec = parse_config(write_config(tmp_path, text))
    assert spec.trials == 500
    assert spec.evaluator == "fft"
    assert spec.order_criterion == "true-k"
    assert spec.values == (1, 2)
    assert spec.base == ScenarioConfig()


def test_parse_config_round_trips_every_field(tmp_path):
    # Every field but base set away from its default.
    base = ScenarioConfig(
        targets=3,
        antennas=12,
        subcarriers=64,
        symbols=2,
        snr_db=12.5,
        carrier_freq_hz=2.4e9,
        subcarrier_spacing_hz=15e3,
        max_range_m=80.0,
        grid_points=512,
        seed=9,
    )
    spec = SweepSpec(
        parameter="antennas",
        values=(8, 12),
        methods=("omp", "ols-iwmusic", "wmusic-noise"),
        base=base,
        trials=7,
        order_criterion="hybrid",
        evaluator="direct",
    )
    defaults = ScenarioConfig()
    assert all(value != getattr(defaults, key) for key, value in vars(base).items())
    lines = ["[scenario]"] + [f"{key} = {value!r}" for key, value in vars(base).items()]
    lines += [
        "[sweep]",
        "parameter = antennas",
        "values = 8, 12",
        "methods = omp, ols-iwmusic, wmusic-noise",
        "trials = 7",
        "order_criterion = hybrid",
        "evaluator = direct",
    ]
    assert parse_config(write_config(tmp_path, "\n".join(lines))) == spec


def test_parse_config_reads_the_demo_config():
    demo = Path(__file__).resolve().parents[1] / "demos" / "snr_sweep.cfg"
    assert parse_config(str(demo)) == SweepSpec(
        parameter="snr_db",
        values=(0.0, 10.0, 20.0, 30.0, 40.0),
        methods=("music-noise", "omp", "ols", "omp-imusic", "ols-imusic"),
        base=ScenarioConfig(targets=8, antennas=16, subcarriers=256, symbols=4, seed=1),
        trials=100,
        order_criterion="true-k",
        evaluator="fft",
    )


@pytest.mark.parametrize(
    "mutation,message",
    [
        (("values = 10, 20, inf", "values ="), "non-empty"),
        (("[scenario]", "[scene]"), "unknown config section"),
        (("targets = 2", "targs = 2"), "unknown \\[scenario\\] key"),
        (("trials = 2", "cycles = 2"), "unknown \\[sweep\\] key"),
        (("parameter = snr_db", "parameter = bandwidth"), "parameter"),
        (("methods = music-signal, omp", "methods = music"), "method id"),
        (("trials = 2", "trials = two"), "integer"),
        (("snr_db = 20", "snr_db = nan"), "nan"),
        (("grid_points = 256", "grid_points = 300"), "power of two"),
        (("antennas = 8", "antennas = 1"), "\\[scenario\\]"),
        (("order_criterion = rank-aic", "order_criterion = oracle"), "order_criterion"),
        # One token per sweep: a per-method list is not a criterion.
        (
            ("order_criterion = rank-aic", "order_criterion = true-k, rank-aic"),
            "order_criterion: 'true-k, rank-aic'",
        ),
        (("evaluator = direct", "evaluator = gpu"), "evaluator"),
    ],
)
def test_parse_config_rejects(tmp_path, mutation, message):
    old, new = mutation
    assert old in GOOD_CONFIG
    with pytest.raises(ConfigError, match=message):
        parse_config(write_config(tmp_path, GOOD_CONFIG.replace(old, new)))


@pytest.fixture
def no_trials(monkeypatch):
    """Fail the test if a sweep runs any trial."""

    def fail(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(bench, "run_trial", fail)


@pytest.mark.parametrize(
    "line,message",
    [
        ("grid_points = 257", "grid_points must be even"),
        ("element_phase_factor = 2.5", "unknown [scenario] key: 'element_phase_factor'"),
        ("subcarrier_spacing_hz = 0", "subcarrier_spacing_hz"),
        ("carrier_freq_hz = inf", "carrier_freq_hz"),
        ("max_range_m = inf", "max_range_m"),
        ("max_range_m = 3", "max_range_m"),
    ],
)
def test_bad_grid_config_exits_before_any_trial(tmp_path, capsys, no_trials, line, message):
    text = GOOD_CONFIG.replace("grid_points = 256", line)
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(write_config(tmp_path, text))
    out = tmp_path / "x.csv"
    argv = ["sweep", "--config", write_config(tmp_path, text), "--out", str(out), "--serial"]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_unknown_evaluator_exits_before_any_trial(tmp_path, capsys, no_trials):
    out = tmp_path / "x.csv"
    argv = ["sweep", "--config", write_config(tmp_path, CLI_CONFIG), "--out", str(out)]
    assert main(argv + ["--evaluator", "gpu"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "evaluator" in err
    assert not out.exists()


def test_run_sweep_rejects_odd_grid_before_any_trial(no_trials):
    spec = sweep_spec(base=ScenarioConfig(grid_points=2049))
    with pytest.raises(ValueError, match="grid_points must be even"):
        run_sweep(spec, serial=True)


def test_parse_config_missing_pieces(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(str(tmp_path / "absent.ini"))
    with pytest.raises(ConfigError, match="sweep"):
        parse_config(write_config(tmp_path, "[scenario]\ntargets = 2\n"))
    with pytest.raises(ConfigError, match="methods"):
        parse_config(
            write_config(tmp_path, "[sweep]\nparameter = snr_db\nvalues = 10\n")
        )
    with pytest.raises(ConfigError, match="malformed"):
        parse_config(write_config(tmp_path, "values = 10\n"))


# ---------------------------------------------------------------- CLI


CLI_CONFIG = """
[scenario]
targets = 2
antennas = 8
subcarriers = 32
symbols = 4
snr_db = 20
grid_points = 256
seed = 3

[sweep]
parameter = snr_db
values = 15, 25
trials = 2
methods = music-signal, omp
"""


def test_cli_sweep_writes_csv(tmp_path, capsys):
    config = write_config(tmp_path, CLI_CONFIG)
    out = tmp_path / "results.csv"
    assert main(["sweep", "--config", config, "--out", str(out), "--serial"]) == 0
    assert "wrote 4 rows" in capsys.readouterr().out
    table = load_results(str(out))
    assert len(table) == 4
    assert {r.method for r in table} == {"music-signal", "omp"}


def test_cli_hybrid_direct_sweep_writes_csv(tmp_path):
    config = write_config(
        tmp_path,
        """
[scenario]
targets = 8
antennas = 16
subcarriers = 256
symbols = 4
snr_db = 40
seed = 1

[sweep]
parameter = snr_db
values = 40
trials = 40
methods = ols
order_criterion = hybrid
evaluator = direct
""",
    )
    out = tmp_path / "results.csv"
    assert main(["sweep", "--config", config, "--out", str(out), "--serial"]) == 0
    (row,) = load_results(str(out))
    assert row.method == "ols" and row.trials == 40


def test_cli_overrides(tmp_path):
    config = write_config(tmp_path, CLI_CONFIG)
    out = tmp_path / "results.csv"
    rc = main(
        [
            "sweep",
            "--config",
            config,
            "--out",
            str(out),
            "--serial",
            "--seed",
            "77",
            "--trials",
            "1",
            "--evaluator",
            "direct",
        ]
    )
    assert rc == 0
    for row in load_results(str(out)):
        assert row.seed == 77
        assert row.trials == 1
        assert row.evaluator == "direct"


def test_cli_demo(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    for method in METHOD_IDS:
        assert method in out
    assert "estimates" in out


def test_cli_exit_codes(tmp_path, capsys):
    bad = write_config(tmp_path, "[sweep]\nparameter = snr_db\n")
    out = tmp_path / "x.csv"
    assert main(["sweep", "--config", bad, "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err

    good = write_config(tmp_path, CLI_CONFIG)
    unwritable = tmp_path / "no" / "dir" / "x.csv"
    rc = main(["sweep", "--config", good, "--out", str(unwritable), "--serial"])
    assert rc == 2
    assert "I/O error:" in capsys.readouterr().err

    assert main(["orbit"]) == 1  # unknown subcommand is a usage error


def test_cli_sweep_checks_out_before_the_first_trial(tmp_path, capsys, monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before --out was checked")

    monkeypatch.setattr(bench, "run_sweep", no_sweep)
    config = write_config(tmp_path, CLI_CONFIG)
    out = tmp_path / "no" / "such" / "x.csv"
    assert main(["sweep", "--config", config, "--out", str(out), "--serial"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("I/O error:") and str(out) in err
    assert not out.parent.exists()
    # An --out that is a directory fails the same way, before the sweep.
    assert main(["sweep", "--config", config, "--out", str(tmp_path), "--serial"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"I/O error: [Errno {errno.EISDIR}]") and str(tmp_path) in err


def test_cli_pins_blas_threads():
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ.get(var)
