"""Correctness checks, computed apart from doalab's own code.

Every check raises CheckFailed with a message; the benchmark then exits
non-zero without printing a result.  None of them runs inside a timed part.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

import doalab


class CheckFailed(AssertionError):
    """A workload's output broke a property the program must have."""


def own_grid(N: int) -> np.ndarray:
    """The N half-wavelength grid angles -1 + 2p/N, ascending."""
    return -1.0 + 2.0 * np.arange(N) / N


def own_steering(us: np.ndarray, M: int) -> np.ndarray:
    """ULA steering vectors exp(j pi u m) as columns."""
    return np.exp(1j * np.pi * np.outer(np.arange(M), us))


def check_estimates(result, grid_angles: np.ndarray) -> None:
    """Each estimate holds k_hat distinct exact grid angles in [-1, 1)."""
    for method, out in result.outcomes.items():
        est = np.asarray(out.estimates)
        where = f"trial {result.trial_index}, {method}"
        if est.shape != (out.k_hat,):
            raise CheckFailed(f"{where}: {est.size} estimates for k_hat={out.k_hat}")
        if np.unique(est).size != est.size:
            raise CheckFailed(f"{where}: repeated estimates {est}")
        if not (np.all(est >= -1.0) and np.all(est < 1.0)):
            raise CheckFailed(f"{where}: estimate outside [-1, 1): {est}")
        if not np.all(np.isin(est, grid_angles)):
            raise CheckFailed(f"{where}: estimate off the grid: {est}")


def hits_range(true_u: np.ndarray, est: np.ndarray, halfwidth: float) -> tuple:
    """Fewest and most hits over all minimum-total-|du| matchings.

    ``est`` is a (B, n) batch of estimate sets for the same truths; the
    result is a pair of length-B integer arrays.  A matching pairs min(K, n)
    truths with estimates; a pair is a hit when its error is below
    ``halfwidth``.  On a line, optimal matchings tie whenever two truths lie
    on the same side of two estimates, and the tied matchings can differ in
    hits, so a program may report any value in the range.  Solved by dynamic
    programming over subsets of truths (costs within 1e-12 count as equal),
    which is independent of the program's assignment solver.
    """
    K, n = true_u.size, est.shape[1]
    cost = np.abs(true_u[None, :, None] - est[:, None, :])  # (B, K, n)
    hit = (cost < halfwidth).astype(float)
    masks = np.arange(1 << K)
    bits = 1 << np.arange(K)[:, None]
    prev = masks[None, :] ^ bits  # the subset before truth t was matched
    usable = (masks[None, :] & bits) != 0
    best = np.full((est.shape[0], 1 << K), math.inf)
    best[:, 0] = 0.0
    fewest = np.zeros_like(best)
    most = np.zeros_like(best)
    for i in range(n):
        # Row 0 leaves estimate i unmatched; row t+1 matches it to truth t.
        step = cost[:, :, i : i + 1]
        c = np.concatenate(
            [best[:, None], np.where(usable, best[:, prev] + step, math.inf)], axis=1
        )
        low = np.concatenate([fewest[:, None], fewest[:, prev] + hit[:, :, i : i + 1]], axis=1)
        high = np.concatenate([most[:, None], most[:, prev] + hit[:, :, i : i + 1]], axis=1)
        best = c.min(axis=1)
        tied = c <= best[:, None] + 1e-12
        fewest = np.where(tied, low, math.inf).min(axis=1)
        most = np.where(tied, high, -math.inf).max(axis=1)
    full = np.array([bin(m).count("1") == min(K, n) for m in masks])
    tied = full & (best <= best[:, full].min(axis=1, keepdims=True) + 1e-12)
    low = np.where(tied, fewest, math.inf).min(axis=1).astype(int)
    high = np.where(tied, most, -math.inf).max(axis=1).astype(int)
    return low, high


def check_scores(result, M: int) -> None:
    """hit_rate, fa_rate and youden_j agree with an optimal matching.

    The reported hit count must lie within the hits of the optimal
    matchings, under the 2/M main-lobe rule, and the three rates must follow
    from it exactly.
    """
    true_u = np.asarray(result.truth.doas, dtype=float)
    K = true_u.size
    by_size = {}
    for method, out in result.outcomes.items():
        by_size.setdefault(np.size(out.estimates), []).append(method)
    for methods in by_size.values():
        batch = np.array([result.outcomes[m].estimates for m in methods], dtype=float)
        lows, highs = hits_range(true_u, batch, 2.0 / M)
        for method, low, high in zip(methods, lows, highs):
            out = result.outcomes[method]
            hits = round(out.hit_rate * K)
            hit_rate = hits / K
            fa_rate = (batch.shape[1] - hits) / max(1, batch.shape[1])
            expected = (hit_rate, fa_rate, hit_rate - fa_rate)
            reported = (out.hit_rate, out.fa_rate, out.youden_j)
            if not low <= hits <= high or reported != expected:
                raise CheckFailed(
                    f"trial {result.trial_index}, {method}: scores {reported} do not "
                    f"follow from an optimal matching ({low} to {high} hits of {K})"
                )


def check_exact_scene(M: int, K: int, N: int, evaluator: str) -> None:
    """An exact on-grid covariance is recovered exactly by all 10 methods.

    Targets sit on mutually orthogonal grid angles (spacing 4/M) with equal
    unit power over a white floor of 0.01.  R is the scene's exact
    covariance, so it carries no sampling noise; the floor keeps the noise
    eigenvalues, which weight the wmusic-noise form, away from zero.
    """
    idx = np.arange(K) * (2 * N // M) + N // M
    u = own_grid(N)[idx]
    A = own_steering(u, M)
    R = A @ A.conj().T + 0.01 * np.eye(M)
    grid = doalab.make_grid(N, M)
    for method in doalab.METHOD_IDS:
        est = np.asarray(doalab.estimate_method(method, R, K, grid, evaluator))
        if not np.array_equal(np.sort(est), u):
            raise CheckFailed(
                f"exact scene M={M} K={K} {evaluator}: {method} returned "
                f"{np.sort(est)}, expected {u}"
            )


def check_music_spectrum(cfg, trial_index: int, result, evaluator: str) -> None:
    """The program's music-signal pseudospectrum equals ||S^H a(u)||^2.

    The trial's covariance is rebuilt with the program's synthesis; S comes
    from numpy's eigh and a(u) from the benchmark's own grid.  Agreement is
    required within 1e-8 of the spectrum's maximum.
    """
    rng = doalab.trial_rng(cfg.seed, trial_index)
    truth = doalab.draw_targets(cfg, rng)
    if not np.array_equal(truth.doas, result.truth.doas):
        raise CheckFailed(f"trial {trial_index}: could not rebuild the scene")
    obs = doalab.synthesize_observation(truth, cfg, rng)
    R = doalab.sample_covariance(obs.Y)
    K, M, N = cfg.targets, cfg.antennas, cfg.grid_points
    _, V = np.linalg.eigh(R)
    S = V[:, M - K :]
    proj = S.conj().T @ own_steering(own_grid(N), M)
    mine = np.sum(np.abs(proj) ** 2, axis=0)
    grid = doalab.make_grid(N, M)
    ps = doalab.pseudospectrum(doalab.partition(R, K), grid, "music-signal", evaluator)
    theirs = np.asarray(ps.values)
    err = float(np.max(np.abs(theirs - mine)))
    if not err <= 1e-8 * float(np.max(mine)):
        raise CheckFailed(f"trial {trial_index}: music-signal spectrum off by {err:.3g}")


def check_repeat(first, again) -> None:
    """A repeated round of trials fails the same trials and estimates the same angles."""
    for a, b in zip(first, again, strict=True):
        same = a.error == b.error and (
            a.result is None
            or all(
                np.array_equal(out.estimates, b.result.outcomes[m].estimates)
                for m, out in a.result.outcomes.items()
            )
        )
        if not same:
            raise CheckFailed(f"trial {a.index}: a repeated round gave other results")


def check_pool_prefix(spec, workers: int) -> None:
    """Pooled and serial runs of one sweep give identical metric columns."""
    pooled = doalab.run_sweep(spec, workers=workers)
    serial = doalab.run_sweep(spec, serial=True)
    if len(pooled) != len(serial):
        raise CheckFailed("pooled and serial sweeps differ in row count")
    for a, b in zip(pooled, serial):
        for f in dataclasses.fields(a):
            if f.name == "mean_time_ms":
                continue
            x, y = getattr(a, f.name), getattr(b, f.name)
            same = x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))
            if not same:
                raise CheckFailed(
                    f"pooled and serial sweeps differ: {a.method} "
                    f"{a.sweep_value} {f.name}: {x!r} != {y!r}"
                )


def check_single_evd(evd_counts: dict) -> None:
    """Every *-imusic/*-iwmusic estimate ran exactly one eigendecomposition."""
    for method, counts in evd_counts.items():
        bad = [c for c in counts if c != 1]
        if bad:
            raise CheckFailed(
                f"{method}: {len(bad)} of {len(counts)} estimates ran "
                f"{sorted(set(bad))} eigendecompositions, expected 1"
            )
