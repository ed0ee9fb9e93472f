"""Greedy matching-pursuit estimators on the covariance square root."""

import math

import numpy as np
import pytest

from conftest import random_complex
from doalab.fastgrid import grid_norms_sq, make_grid, objective_values
from doalab.greedy import (
    greedy_objective,
    greedy_step,
    greedy_update,
    initial_state,
)
from doalab.methods import METHODS, estimate_method
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
    projectors,
    reference_objective_values,
    residual,
)


def scenario_sqrt(seed, M=8, K=3, snr_db=30.0, N=256):
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
    return obs, R, partition(R, K).sqrt_R, make_grid(N, M)


def slow_objective_forms(state, obs, R, sqrt_R, grid):
    """Per-candidate oracle of the three equivalent correlation objectives.

    Returns (observation form, covariance form, square-root form) where the
    observation matrix is normalized by sqrt(L) so all three measure the
    same per-snapshot energy.
    """
    L = obs.Y.shape[1]
    pc = complement_projector(state)
    Yn = (pc @ obs.Y) / math.sqrt(L)
    Rk = pc @ R @ pc.conj().T
    obs_form = np.empty(grid.N)
    cov_form = np.empty(grid.N)
    for p in range(grid.N):
        a = steering_matrix([grid.angles[p]], grid.M)[:, 0]
        obs_form[p] = np.sum(np.abs(Yn.conj().T @ a) ** 2)
        cov_form[p] = (a.conj() @ Rk @ a).real
    sqrt_form = np.sum(
        np.abs(residual(state, sqrt_R).conj().T @ grid.steering) ** 2, axis=0
    )
    return obs_form, cov_form, sqrt_form


# ---------------------------------------------------------------- state


def test_initial_state_is_identity_projection():
    rng = np.random.default_rng(0)
    sqrt_R = random_complex(rng, 6, 6)
    state = initial_state(sqrt_R, make_grid(12, 6))
    assert state.selected == () and state.Q.shape == (6, 0)
    np.testing.assert_array_equal(complement_projector(state), np.eye(6))
    np.testing.assert_array_equal(residual(state, sqrt_R), sqrt_R)


def test_update_projects_out_selected_steering():
    _, _, sqrt_R, grid = scenario_sqrt(seed=1)
    state = initial_state(sqrt_R, grid)
    greedy_update(state, 40)
    greedy_update(state, 170)
    assert state.selected == (40, 170)
    A = steering_matrix(grid.angles[list(state.selected)], grid.M)
    assert np.linalg.norm(complement_projector(state) @ A) <= 1e-9 * np.linalg.norm(A)


def test_update_rejects_duplicate_angle():
    # A grid index outside [0, N) is rejected, a negative one included (it
    # must not wrap around to the grid's end), and so is a repeated index;
    # a rejected call leaves the state as it was.
    _, _, sqrt_R, grid = scenario_sqrt(seed=2)
    state = initial_state(sqrt_R, grid)
    greedy_update(state, 10)
    res = state.res.copy()
    for p in (-1, grid.N):
        with pytest.raises(ValueError, match="out of range"):
            greedy_update(state, p)
    for p in (10, np.int64(10)):
        with pytest.raises(ValueError, match="already selected"):
            greedy_update(state, p)
    assert state.selected == (10,)
    np.testing.assert_array_equal(state.res, res)


def test_update_of_a_masked_unselected_point_hits_the_rank_guard():
    # Four mutually orthogonal grid columns span C^4, so every other grid
    # point is masked without being selected; adding one must raise the
    # rank guard's LinAlgError, not the duplicate check's ValueError.
    rng = np.random.default_rng(0)
    grid = make_grid(8, 4)
    state = initial_state(random_complex(rng, 4, 4), grid)
    for p in (0, 2, 4, 6):
        greedy_update(state, p)
    assert state.masked.all()
    with pytest.raises(np.linalg.LinAlgError, match="rank-deficient"):
        greedy_update(state, 1)


def test_residual_is_recomputable_from_scratch():
    _, _, sqrt_R, grid = scenario_sqrt(seed=3)
    state = initial_state(sqrt_R, grid)
    for p in (25, 90, 200):
        greedy_update(state, p)
    A = steering_matrix(grid.angles[list(state.selected)], grid.M)
    _, Pc = projectors(A)
    np.testing.assert_allclose(
        residual(state, sqrt_R),
        Pc @ sqrt_R,
        atol=1e-10 * np.linalg.norm(sqrt_R),
    )


# ---------------------------------------------------------------- objectives


@pytest.mark.parametrize("seed", range(5))
def test_correlation_objective_forms_agree(seed):
    # The OMP score can be written against the projected observation, the
    # projected covariance, or the projected square root; all three must
    # agree at every grid point, at every iteration.
    obs, R, sqrt_R, grid = scenario_sqrt(seed=seed)
    state = initial_state(sqrt_R, grid)
    for _ in range(3):
        obs_form, cov_form, sqrt_form = slow_objective_forms(state, obs, R, sqrt_R, grid)
        scale = np.max(cov_form)
        np.testing.assert_allclose(obs_form, cov_form, rtol=0, atol=1e-9 * scale)
        np.testing.assert_allclose(sqrt_form, cov_form, rtol=0, atol=1e-9 * scale)
        omp = greedy_objective(state, "norm")
        np.testing.assert_allclose(omp, cov_form, rtol=0, atol=1e-9 * scale)
        greedy_update(state, int(np.argmax(omp)))


@pytest.mark.parametrize("method", ["omp", "ols"])
def test_captured_energy_is_monotone(method):
    obs, R, sqrt_R, grid = scenario_sqrt(seed=4, K=4)
    state = initial_state(sqrt_R, grid)
    captured = [0.0]
    for _ in range(5):
        greedy_step(state, METHODS[method].form)
        P = np.eye(grid.M) - complement_projector(state)
        captured.append(float(np.trace(R @ P).real))
    diffs = np.diff(captured)
    assert np.all(diffs >= -1e-9 * captured[-1])


def test_ols_masks_already_selected_candidates():
    _, _, sqrt_R, grid = scenario_sqrt(seed=5)
    state = initial_state(sqrt_R, grid)
    first = greedy_objective(state, "ratio")
    p0 = int(np.argmax(first))
    greedy_update(state, p0)
    second = greedy_objective(state, "ratio")
    assert second[p0] == -np.inf
    assert int(np.argmax(second)) != p0


def test_unknown_method_rejected():
    _, R, _, grid = scenario_sqrt(seed=6)
    with pytest.raises(ValueError, match="unknown method id"):
        estimate_method("omps", R, 2, grid)
    with pytest.raises(ValueError, match="K must satisfy"):
        estimate_method("omp", R, -1, grid)


# ---------------------------------------------------------------- estimates


def noiseless_obs(cfg, grid_indices, amplitudes=None):
    grid = make_grid(cfg.grid_points, cfg.antennas)
    K = len(grid_indices)
    amps = (
        np.asarray(amplitudes)
        if amplitudes is not None
        else np.exp(1j * np.linspace(0.5, 1.5, K))
    )
    truth = GroundTruth(
        doas=grid.angles[np.asarray(grid_indices)],
        # Delay gaps of 4e-7 s complete full cycles across the 32
        # subcarriers (78125 Hz spacing), keeping coefficient rows exactly
        # uncorrelated so beamformer-type objectives peak on the true bins.
        ranges=1e-7 + 4e-7 * np.arange(K),
        dopplers=np.zeros(K),
        amplitudes=amps,
        noise_variance=0.0,
    )
    obs = synthesize_observation(truth, cfg, trial_rng(cfg.seed, 0))
    return obs, grid, truth


@pytest.mark.parametrize("method", ["omp", "ols"])
def test_noiseless_single_target_first_iteration(method):
    cfg = ScenarioConfig(
        targets=1,
        antennas=8,
        subcarriers=32,
        symbols=4,
        snr_db=math.inf,
        grid_points=256,
        seed=7,
    )
    obs, grid, truth = noiseless_obs(cfg, [133])
    est = estimate_method(method, sample_covariance(obs.Y), 1, grid)
    np.testing.assert_array_equal(est, truth.doas)


@pytest.mark.parametrize("method", ["omp", "ols"])
def test_noiseless_two_targets_exact(method):
    cfg = ScenarioConfig(
        targets=2,
        antennas=8,
        subcarriers=32,
        symbols=4,
        snr_db=math.inf,
        grid_points=256,
        seed=8,
    )
    # Orthogonal spacing (multiples of N/M = 32 grid cells apart).
    obs, grid, truth = noiseless_obs(cfg, [64, 160])
    est = estimate_method(method, sample_covariance(obs.Y), 2, grid)
    np.testing.assert_array_equal(np.sort(est), np.sort(truth.doas))


def test_estimates_are_grid_angles_in_selection_order():
    _, R, _, grid = scenario_sqrt(seed=9, K=3)
    est = estimate_method("ols", R, 3, grid)
    assert est.shape == (3,)
    for u in est:
        assert u in grid.angles
    assert len(set(est.tolist())) == 3


def test_ols_slow_projector_oracle_agrees():
    # OLS's ratio form must pick the same candidate as the brute-force rule
    # "maximize the energy captured by refitting all selected angles plus
    # the candidate" evaluated with a full projector rebuild per candidate.
    obs, R, sqrt_R, grid = scenario_sqrt(seed=10, M=8, K=3, N=128)
    state = initial_state(sqrt_R, grid)
    for _ in range(3):
        fast = greedy_objective(state, "ratio")
        captured = np.full(grid.N, -np.inf)
        for p in range(grid.N):
            if not np.isfinite(fast[p]):
                continue
            cand = grid.angles[list(state.selected) + [p]]
            A = steering_matrix(cand, grid.M)
            try:
                P, _ = projectors(A)
            except np.linalg.LinAlgError:
                continue
            captured[p] = float(np.trace(R @ P).real)
        assert int(np.argmax(fast)) == int(np.argmax(captured))
        greedy_update(state, int(np.argmax(fast)))


@pytest.mark.parametrize("method", ["omp", "ols"])
def test_basis_stays_orthonormal_at_k_m_minus_one(method):
    # The hybrid-order scene whose K = M-1 OLS selection tripped the old
    # normal-equations rank guard: CGS2 keeps Q orthonormal and the residual
    # orthogonal to every selected steering vector all the way to M-1.
    cfg = ScenarioConfig(
        targets=8, antennas=16, subcarriers=256, symbols=4, snr_db=40.0, seed=1
    )
    rng = trial_rng(cfg.seed, 11)
    obs = synthesize_observation(draw_targets(cfg, rng), cfg, rng)
    sqrt_R = partition(sample_covariance(obs.Y), 1).sqrt_R
    M = cfg.antennas
    grid = make_grid(cfg.grid_points, M)
    state = initial_state(sqrt_R, grid, "direct")
    for _ in range(M - 1):
        greedy_step(state, METHODS[method].form)
    assert len(set(state.selected)) == M - 1
    assert np.linalg.norm(state.Q.conj().T @ state.Q - np.eye(M - 1)) <= 1e-12
    A = steering_matrix(grid.angles[list(state.selected)], M)
    leak = np.linalg.norm(A.conj().T @ residual(state, sqrt_R))
    assert leak <= 1e-12 * np.linalg.norm(A) * np.linalg.norm(sqrt_R)


# ---------------------------------------------------------------- oracle engine


def hybrid_scene(trial, snr_db=40.0, antennas=16):
    """Covariance and grid of the hybrid-order scene (K=8, M=16, L=1024),
    or of the same scene on ``antennas`` elements."""
    cfg = ScenarioConfig(
        targets=8, antennas=antennas, subcarriers=256, symbols=4, snr_db=snr_db, seed=1
    )
    rng = trial_rng(cfg.seed, trial)
    obs = synthesize_observation(draw_targets(cfg, rng), cfg, rng)
    return sample_covariance(obs.Y), make_grid(cfg.grid_points, cfg.antennas)


def reference_scores(selected, X, grid, form, evaluator):
    """From-scratch scores: basis by Householder QR of the selected steering
    vectors, then the residual, the projector and one reference_objective_values
    call."""
    A = steering_matrix(selected, grid.M)
    Q = np.linalg.qr(A)[0] if selected else A
    res = X - Q @ (Q.conj().T @ X)
    pc = np.eye(grid.M) - Q @ Q.conj().T
    return reference_objective_values(res, grid, form, evaluator, pc=pc)


def reference_selection(X, grid, form, evaluator, steps):
    """The greedy loop with every iteration scored from scratch."""
    selected = []
    for _ in range(steps):
        values = reference_scores(selected, X, grid, form, evaluator)
        selected.append(float(grid.angles[int(np.argmax(values))]))
    return selected


def check_engine_against_oracle(X, grid, form, evaluator, steps):
    """Run ``steps`` engine selections on X, checking the state against a
    from-scratch evaluation at the same selections before each one."""
    M = grid.M
    state = initial_state(X, grid, evaluator)
    for _ in range(steps):
        Q = state.Q
        res = X - Q @ (Q.conj().T @ X)
        pc = np.eye(M) - Q @ Q.conj().T
        np.testing.assert_allclose(state.res, res, rtol=0, atol=1e-12 * np.abs(X).max())
        num = objective_values(res, grid, "norm", evaluator)
        np.testing.assert_allclose(
            grid_norms_sq(state.Z), num, rtol=0, atol=1e-9 * num.max()
        )
        denom = objective_values(pc, grid, "norm", evaluator)
        np.testing.assert_allclose(state.d, denom, rtol=0, atol=1e-9 * M)
        values = greedy_objective(state, form)
        ref = reference_objective_values(res, grid, form, evaluator, pc=pc)
        np.testing.assert_array_equal(np.isfinite(values), np.isfinite(ref))
        if form == "norm":
            np.testing.assert_allclose(values, ref, rtol=0, atol=1e-9 * ref.max())
        assert int(np.argmax(values)) == int(np.argmax(ref))
        greedy_update(state, int(np.argmax(values)))
    assert len(state.selected) == steps


@pytest.mark.parametrize("evaluator", ["fft", "direct"])
@pytest.mark.parametrize(
    "form, operand",
    [("norm", "sqrt_R"), ("ratio", "sqrt_R"), ("complement-ratio", "G")],
)
def test_engine_state_matches_from_scratch_oracle(form, operand, evaluator):
    # The engine updates its residual, grid correlations and denominators in
    # place, one column per selection.  At every iteration up to K = M-1 its
    # residual, numerators ||res^H a||^2 and denominators ||Pc a||^2 must
    # equal a from-scratch evaluation at the same selections, and its scores
    # must mask and pick as the from-scratch objective does.  Trial 11
    # selects near-collinear angles at high k.  Ratio-form scores are not
    # compared value by value: where ||Pc a||^2 sits just above the mask
    # threshold they carry ~eps / ||Pc a||^2 relative error in any
    # evaluation (the two from-scratch evaluators differ there by up to
    # 1e-3 of the maximum on this scene).
    R, grid = hybrid_scene(11)
    X = getattr(partition(R, 8), operand)
    check_engine_against_oracle(X, grid, form, evaluator, grid.M - 1)


@pytest.mark.parametrize("evaluator", ["fft", "direct"])
@pytest.mark.parametrize("form", ["norm", "ratio"])
def test_engine_state_matches_oracle_on_a_wide_operand(form, evaluator):
    # The same checks on a 64-column operand (M = 64, the covariance square
    # root), where each rank-one update of Z spans 64 grid rows.
    R, grid = hybrid_scene(11, antennas=64)
    check_engine_against_oracle(partition(R, 8).sqrt_R, grid, form, evaluator, 8)


@pytest.mark.parametrize("evaluator", ["fft", "direct"])
def test_engine_selects_what_the_oracle_selects_at_k_15(evaluator):
    # The hybrid-order workload's scene runs OLS to K = M-1 = 15.
    for trial in range(12):
        R, grid = hybrid_scene(trial, snr_db=(20.0, 40.0)[trial % 2])
        sqrt_R = partition(R, 8).sqrt_R
        state = initial_state(sqrt_R, grid, evaluator)
        for _ in range(15):
            greedy_step(state, "ratio")
        ref = reference_selection(sqrt_R, grid, "ratio", evaluator, 15)
        assert grid.angles[list(state.selected)].tolist() == ref, trial
