"""Association, detection scoring, RMSE restriction, and diagnostics."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from doalab.metrics import (
    _linear_sum_assignment,
    associate,
    detection_metrics,
    diagnostics,
    diagonality_score,
    hit_true_indices,
    rmse_common_hits,
)
from doalab.scenario import GroundTruth, ScenarioConfig, draw_targets, synthesize_observation, trial_rng


def brute_force_min_cost(true_u, est_u):
    """Exhaustive optimal assignment cost for small problems."""
    true_u = np.asarray(true_u)
    est_u = np.asarray(est_u)
    n, m = true_u.size, est_u.size
    k = min(n, m)
    best = math.inf
    for rows in itertools.permutations(range(n), k):
        for cols in itertools.permutations(range(m), k):
            cost = sum(abs(true_u[r] - est_u[c]) for r, c in zip(rows, cols))
            best = min(best, cost)
    return best


# ---------------------------------------------------------------- associate


def test_associate_identical_multisets():
    u = [0.1, -0.4, 0.9]
    assoc = associate(u, u)
    assert len(assoc.pairs) == 3
    assert all(d == 0.0 for _, _, d in assoc.pairs)
    assert assoc.unmatched_true == () and assoc.unmatched_est == ()


def test_associate_empty_sides():
    assoc = associate([0.1, 0.2], [])
    assert assoc.pairs == ()
    assert assoc.unmatched_true == (0, 1)
    assoc = associate([], [0.3])
    assert assoc.unmatched_est == (0,)
    assert associate([], []).pairs == ()


def test_associate_avoids_greedy_trap():
    # Nearest-first matching would pair 0<->0.01 then be forced into
    # 0.1<->0.09 anyway; the optimal pairing is that one, total cost 0.02,
    # not the greedy-looking (0<->0.09, 0.1<->0.01) at 0.18.
    assoc = associate([0.0, 0.1], [0.09, 0.01])
    by_true = {t: e for t, e, _ in assoc.pairs}
    assert by_true == {0: 1, 1: 0}
    assert sum(d for _, _, d in assoc.pairs) == pytest.approx(0.02)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="associate breaks cost ties by input order, not by the hit rule",
)
def test_hits_do_not_depend_on_truth_order():
    # Estimates (0.3, 0.4) against truths (0.1, 0.2): both pairings cost 0.4,
    # but only the crossed one puts a pair inside the M=16 main lobe (2/M).
    est = (0.3, 0.4)
    hits = [
        detection_metrics(associate(truth, est), 16).hits
        for truth in ((0.1, 0.2), (0.2, 0.1))
    ]
    assert hits[0] == hits[1], hits


@pytest.mark.parametrize("seed", range(12))
def test_associate_is_optimal_small_cases(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 6))
    true_u = rng.uniform(-1, 1, n)
    est_u = rng.uniform(-1, 1, m)
    assoc = associate(true_u, est_u)
    assert len(assoc.pairs) == min(n, m)
    total = sum(d for _, _, d in assoc.pairs)
    assert total == pytest.approx(brute_force_min_cost(true_u, est_u), abs=1e-12)
    # Index bookkeeping: every index appears exactly once overall.
    t_used = [t for t, _, _ in assoc.pairs] + list(assoc.unmatched_true)
    e_used = [e for _, e, _ in assoc.pairs] + list(assoc.unmatched_est)
    assert sorted(t_used) == list(range(n))
    assert sorted(e_used) == list(range(m))


def test_associate_beats_identity_and_random_permutations():
    rng = np.random.default_rng(99)
    true_u = rng.uniform(-1, 1, 6)
    est_u = rng.uniform(-1, 1, 6)
    assoc = associate(true_u, est_u)
    total = sum(d for _, _, d in assoc.pairs)
    assert total <= np.sum(np.abs(true_u - est_u)) + 1e-12
    for _ in range(100):
        perm = rng.permutation(6)
        assert total <= np.sum(np.abs(true_u - est_u[perm])) + 1e-12


# ------------------------------------------------- scipy parity of the solver


def scipy_pairs(cost):
    rows, cols = linear_sum_assignment(cost)
    return rows.tolist(), cols.tolist()


def random_shape(rng):
    return tuple(int(x) for x in rng.integers(1, 17, 2))


def grid_quantized_costs(rng, n, m):
    # Estimates snapped to a coarse grid, as a grid search reports them:
    # several estimates share a value, so many pairings tie.
    step = 2.0 / int(rng.choice([8, 16, 64]))
    true_u = rng.uniform(-1, 1, n)
    est_u = np.round(rng.uniform(-1, 1, m) / step) * step
    if rng.random() < 0.5:
        true_u = np.round(true_u / step) * step
    return np.abs(true_u[:, None] - est_u[None, :])


def rounded_costs(rng, n, m):
    true_u = np.round(rng.uniform(-1, 1, n), 1)
    est_u = np.round(rng.uniform(-1, 1, m), 1)
    return np.abs(true_u[:, None] - est_u[None, :])


def small_integer_costs(rng, n, m):
    return rng.integers(0, 3, (n, m)).astype(float)


@pytest.mark.parametrize(
    "make_costs", [grid_quantized_costs, rounded_costs, small_integer_costs]
)
@pytest.mark.parametrize("seed", range(2))
def test_solver_matches_scipy_on_tied_costs(make_costs, seed):
    # Square, wide and tall shapes up to 16 x 16, K = 1 included.
    rng = np.random.default_rng(seed)
    for _ in range(500):
        cost = make_costs(rng, *random_shape(rng))
        assert _linear_sum_assignment(cost) == scipy_pairs(cost), cost.tolist()


@pytest.mark.parametrize(
    "shape", [(1, 1), (1, 16), (16, 1), (16, 16), (15, 16), (16, 15)]
)
def test_solver_matches_scipy_at_the_shape_limits(shape):
    rng = np.random.default_rng(sum(shape))
    for make_costs in (grid_quantized_costs, rounded_costs, small_integer_costs):
        for _ in range(20):
            cost = make_costs(rng, *shape)
            assert _linear_sum_assignment(cost) == scipy_pairs(cost), cost.tolist()


@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0)])
def test_solver_pairs_nothing_when_a_side_is_empty(shape):
    cost = np.zeros(shape)
    assert _linear_sum_assignment(cost) == scipy_pairs(cost) == ([], [])


@pytest.mark.parametrize(
    "cost, expected",
    [
        # Constant costs pair the identity (the reversed column scan).
        (np.ones((3, 3)), ([0, 1, 2], [0, 1, 2])),
        (np.ones((2, 4)), ([0, 1], [0, 1])),
        (np.ones((4, 2)), ([0, 1], [0, 1])),
        ([[1, 0], [0, 0], [0, 1]], ([0, 1], [1, 0])),
        ([[2, 1, 1, 2], [1, 2, 2, 1]], ([0, 1], [1, 0])),
    ],
)
def test_solver_pins_tied_pairings(cost, expected):
    # Literals, so that a change in scipy's tie rule shows up as a diff here.
    cost = np.asarray(cost, dtype=float)
    assert _linear_sum_assignment(cost) == expected
    assert scipy_pairs(cost) == expected


@pytest.mark.parametrize(
    "truth, pairs",
    [
        ((0.1, 0.2), ((0, 0, 0.19999999999999998), (1, 1, 0.2))),
        ((0.2, 0.1), ((0, 0, 0.09999999999999998), (1, 1, 0.30000000000000004))),
    ],
)
def test_associate_pins_the_order_dependent_tie(truth, pairs):
    # Both pairings of estimates (0.3, 0.4) cost 0.4; which one comes out
    # depends on the order of the truths (ROADMAP item 6).
    assert associate(truth, (0.3, 0.4)).pairs == pairs


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_solver_rejects_invalid_costs_as_scipy_does(bad):
    cost = np.array([[0.5, bad], [1.0, 2.0]])
    with pytest.raises(ValueError, match="invalid numeric entries"):
        _linear_sum_assignment(cost)
    with pytest.raises(ValueError, match="invalid numeric entries"):
        linear_sum_assignment(cost)


def test_solver_rejects_infeasible_costs_as_scipy_does():
    cost = np.array([[math.inf, math.inf], [1.0, 2.0]])
    with pytest.raises(ValueError, match="infeasible"):
        _linear_sum_assignment(cost)
    with pytest.raises(ValueError, match="infeasible"):
        linear_sum_assignment(cost)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_associate_rejects_non_finite_angles(bad):
    with pytest.raises(ValueError):
        associate([0.1, 0.2], [0.3, bad])


# ---------------------------------------------------------------- detection


def test_perfect_detection_scores_one():
    u = [0.2, -0.5, 0.8]
    det = detection_metrics(associate(u, u), M=16)
    assert det.hits == 3 and det.false_alarms == 0
    assert det.hit_rate == 1.0 and det.fa_rate == 0.0
    assert det.youden_j == 1.0


def test_one_hit_one_spurious_scores_zero():
    # Two true targets; the estimator reports one spot-on and one off by
    # 0.2, outside the 0.125 main lobe.
    det = detection_metrics(associate([0.0, 0.5], [0.0, 0.3]), M=16)
    assert det.hits == 1 and det.false_alarms == 1
    assert det.hit_rate == 0.5 and det.fa_rate == 0.5
    assert det.youden_j == 0.0


def test_matched_beyond_threshold_is_false_alarm():
    # |du| = 0.2 with M=16 is outside the 2/M = 0.125 main lobe.
    det = detection_metrics(associate([0.0], [0.2]), M=16)
    assert det.hits == 0 and det.false_alarms == 1
    assert det.youden_j == -1.0


def test_hit_threshold_is_strict():
    M = 16
    just_inside = detection_metrics(
        associate([0.0], [2.0 / M - 1e-9]), M=M
    )
    at_threshold = detection_metrics(associate([0.0], [2.0 / M]), M=M)
    assert just_inside.hits == 1
    assert at_threshold.hits == 0


def test_missed_targets_lower_hit_rate_without_fa():
    # Estimator reports fewer estimates than targets, all accurate.
    det = detection_metrics(associate([0.0, 0.5, -0.5], [0.0]), M=16)
    assert det.hits == 1 and det.false_alarms == 0
    assert det.hit_rate == pytest.approx(1 / 3)
    assert det.fa_rate == 0.0


def test_k_true_validation():
    with pytest.raises(ValueError):
        detection_metrics(associate([], [0.0]), M=8)


@given(
    st.lists(st.floats(-1, 1), min_size=1, max_size=8),
    st.lists(st.floats(-1, 1), min_size=0, max_size=8),
)
@settings(max_examples=120, deadline=None)
def test_youden_j_stays_bounded(true_u, est_u):
    assoc = associate(true_u, est_u)
    det = detection_metrics(assoc, M=16)
    assert -1.0 <= det.youden_j <= 1.0
    assert det.youden_j == pytest.approx(det.hit_rate - det.fa_rate)
    assert det.hits == len(hit_true_indices(assoc, 16))
    assert det.hit_rate == det.hits / len(true_u)


def test_hit_true_indices():
    assoc = associate([0.0, 0.5], [0.001, 0.9])
    assert hit_true_indices(assoc, M=16) == frozenset({0})


# ---------------------------------------------------------------- rmse


def test_rmse_single_method_single_hit():
    assocs = {"a": associate([0.0], [0.001])}
    out = rmse_common_hits(assocs, M=16)
    assert out["a"] == pytest.approx(0.001)


def test_rmse_disjoint_hits_is_absent():
    # Method a hits only target 0, method b only target 1.
    assocs = {
        "a": associate([0.0, 0.5], [0.001, 0.9]),
        "b": associate([0.0, 0.5], [0.35, 0.501]),
    }
    out = rmse_common_hits(assocs, M=16)
    assert out == {"a": None, "b": None}


def test_rmse_hand_computed_three_targets():
    true_u = [0.0, 0.3, -0.4]
    est_a = [0.01, 0.32, -0.38]
    est_b = [0.0, 0.29, -0.41]
    assocs = {"a": associate(true_u, est_a), "b": associate(true_u, est_b)}
    out = rmse_common_hits(assocs, M=16)
    assert out["a"] == pytest.approx(math.sqrt((0.01**2 + 0.02**2 + 0.02**2) / 3))
    assert out["b"] == pytest.approx(math.sqrt((0.0**2 + 0.01**2 + 0.01**2) / 3))


def test_rmse_restricts_to_commonly_hit_targets():
    true_u = [0.0, 0.5]
    assocs = {
        "sharp": associate(true_u, [0.001, 0.502]),  # hits both
        "half": associate(true_u, [0.03, 0.9]),  # hits only target 0
    }
    out = rmse_common_hits(assocs, M=16)
    # Only target 0 is common, so 'sharp' is scored on it alone.
    assert out["sharp"] == pytest.approx(0.001)
    assert out["half"] == pytest.approx(0.03)


def test_rmse_requires_a_method():
    with pytest.raises(ValueError):
        rmse_common_hits({}, M=8)


# ---------------------------------------------------------------- diagnostics


def test_diagonality_endpoints():
    assert diagonality_score(np.eye(5)) == 1.0
    assert diagonality_score(np.ones((4, 4))) == 0.0
    assert diagonality_score(np.array([[3.7]])) == 1.0


def test_diagonality_hand_case():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert diagonality_score(A) == pytest.approx(1.0 / 3.0)


def test_diagonality_clamps_below_zero():
    # Zero diagonal with off-diagonal mass drives the raw score negative.
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert diagonality_score(A) == 0.0


def test_diagonality_validation():
    with pytest.raises(ValueError, match="square"):
        diagonality_score(np.ones((2, 3)))
    with pytest.raises(ValueError, match="zero row"):
        diagonality_score(np.array([[1.0, 0.0], [0.0, 0.0]]))


@given(st.integers(2, 7), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_diagonality_permutation_invariance(K, seed):
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.1, 1.0, (K, K)) + 1j * rng.uniform(0.1, 1.0, (K, K))
    perm = rng.permutation(K)
    P = np.eye(K)[perm]
    assert diagonality_score(P @ A @ P.T) == pytest.approx(diagonality_score(A))
    assert 0.0 <= diagonality_score(A) <= 1.0


def test_diagnostics_orthogonal_steering_scores_one():
    # Angles spaced by multiples of 2/M give an exactly diagonal steering
    # Gram, so the angular-separability metric is exactly 1.
    M = 8
    truth = GroundTruth(
        doas=np.array([-0.5, 0.0, 0.25]),
        ranges=np.array([1e-7, 2e-7, 3e-7]),
        dopplers=np.zeros(3),
        amplitudes=np.ones(3, dtype=complex),
        noise_variance=0.0,
    )
    cfg = ScenarioConfig(
        targets=3, antennas=M, subcarriers=32, symbols=4, grid_points=256, seed=0
    )
    obs = synthesize_observation(truth, cfg, trial_rng(0, 0))
    diag = diagnostics(truth, obs.coeffs @ obs.coeffs.conj().T, M)
    assert diag.t_metric == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= diag.s_metric <= 1.0


def test_diagnostics_single_target_is_trivially_diagonal():
    cfg = ScenarioConfig(
        targets=1, antennas=8, subcarriers=32, symbols=4, grid_points=256, seed=1
    )
    rng = trial_rng(cfg.seed, 0)
    truth = draw_targets(cfg, rng)
    obs = synthesize_observation(truth, cfg, rng)
    diag = diagnostics(truth, obs.coeffs @ obs.coeffs.conj().T, 8)
    assert diag.t_metric == 1.0 and diag.s_metric == 1.0
