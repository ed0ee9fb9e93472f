"""Seeded A/B of the two ways to draw a trial: the explicit observation
against the covariance-domain draw that ``run_trial`` uses.

    PYTHONPATH=src python3 tools/synthesis_ab.py [--quick] [--workers W]

Reads the scene, SNR values, methods and seed of ``demos/snr_sweep.cfg``
and runs ``TRIALS`` trials per SNR.  Trial t at each SNR draws its targets
from ``trial_rng(seed, t)``, so both arms see the same scene (the pairing);
the stream then goes on to either

- ``explicit``: ``synthesize_observation`` and ``sample_covariance`` of the
  M x L observation, or
- ``covariance``: ``coefficient_gram`` and ``draw_covariance``, exactly as
  ``run_trial`` draws it.

Every method estimates on each arm's R with the true target count and is
scored as ``run_trial`` scores it.  For each SNR x method x metric (hit
rate, false-alarm rate, Youden J) the tool prints both arms' means, the mean
paired difference (covariance - explicit), its standard error and
z = difference / SE; then, per SNR, the mean and sd of the noise eigenvalues
(the M - K smallest of R, in units of sigma^2) on each arm and the paired z
of their per-trial means; and last the largest |z| of the metric cells.
The exit status is 1 when that exceeds ``BOUND`` (3.5, a Bonferroni-level
5% family-wise bound for 75 cells).  ``--quick`` runs ``QUICK_TRIALS``
trials per SNR and checks no bound.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from doalab import pin_blas_threads
from doalab.config import parse_config
from doalab.fastgrid import make_grid
from doalab.methods import estimate_method
from doalab.metrics import associate, detection_metrics
from doalab.scenario import (
    coefficient_gram,
    draw_covariance,
    draw_targets,
    synthesize_observation,
    trial_rng,
)
from doalab.subspace import sample_covariance

CONFIG = Path(__file__).resolve().parents[1] / "demos" / "snr_sweep.cfg"
ARMS = ("explicit", "covariance")
METRICS = ("hit_rate", "fa_rate", "youden_j")
TRIALS = 2000
QUICK_TRIALS = 3
BOUND = 3.5
CHUNK_TRIALS = 50


def arm_covariance(arm: str, cfg, trial: int):
    """The trial's targets and sample covariance as ``arm`` draws them."""
    rng = trial_rng(cfg.seed, trial)
    truth = draw_targets(cfg, rng)
    if arm == "explicit":
        return truth, sample_covariance(synthesize_observation(truth, cfg, rng).Y)
    return truth, draw_covariance(truth, coefficient_gram(truth, cfg), cfg, rng)


def run_arm(arm: str, cfg, trial: int, methods: tuple, evaluator: str) -> tuple:
    """Per-method (hit, fa, J) rows (nan on an estimator error) and the
    noise eigenvalues over sigma^2, for one trial on one arm."""
    truth, R = arm_covariance(arm, cfg, trial)
    grid = make_grid(cfg.grid_points, cfg.antennas, cfg.element_phase_factor)
    scores = np.full((len(methods), len(METRICS)), math.nan)
    for i, method in enumerate(methods):
        try:
            est = estimate_method(method, R, cfg.targets, grid, evaluator)
        except Exception:  # counted as a failed estimate, as run_trial does
            continue
        det = detection_metrics(
            associate(truth.doas, est), cfg.antennas, cfg.element_phase_factor
        )
        scores[i] = det.hit_rate, det.fa_rate, det.youden_j
    noise = np.linalg.eigvalsh(R)[: cfg.antennas - cfg.targets] / truth.noise_variance
    return scores, noise


def run_chunk(cfg, trials: range, methods: tuple, evaluator: str) -> list:
    return [
        [run_arm(arm, cfg, t, methods, evaluator) for arm in ARMS] for t in trials
    ]


def paired(a: np.ndarray, b: np.ndarray) -> tuple:
    """Mean of b - a over pairs where both are defined, its SE and z."""
    ok = ~(np.isnan(a) | np.isnan(b))
    d = b[ok] - a[ok]
    mean = float(np.mean(d))
    se = float(np.std(d, ddof=1) / math.sqrt(d.size)) if d.size > 1 else math.nan
    if se > 0:
        z = mean / se
    else:
        z = 0.0 if mean == 0 else math.inf
    return mean, se, z


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help=f"{QUICK_TRIALS} trials per SNR")
    parser.add_argument("--workers", type=int, default=1, help="processes, this one included")
    args = parser.parse_args(argv)
    spec = parse_config(str(CONFIG))
    trials = QUICK_TRIALS if args.quick else TRIALS
    methods = spec.methods
    print(
        f"scene: {CONFIG.name}, seed {spec.base.seed}, {trials} trials per SNR, "
        f"methods {', '.join(methods)}, true K, {spec.evaluator}"
    )

    jobs = []
    for value in spec.values:
        cfg = replace(spec.base, snr_db=float(value))
        for start in range(0, trials, CHUNK_TRIALS):
            jobs.append((cfg, range(start, min(start + CHUNK_TRIALS, trials)), methods, spec.evaluator))
    if args.workers > 1:
        pin_blas_threads()
        with ProcessPoolExecutor(args.workers, mp_context=get_context("spawn")) as pool:
            chunks = list(pool.map(run_chunk, *zip(*jobs)))
    else:
        chunks = [run_chunk(*job) for job in jobs]
    per_value = len(chunks) // len(spec.values)

    print(f"\n{'snr':>4} {'method':<11} {'metric':<9} {'explicit':>9} {'covariance':>10} "
          f"{'diff':>9} {'se':>8} {'z':>6}")
    worst, noise_rows = 0.0, []
    for vi, value in enumerate(spec.values):
        rows = [r for c in chunks[vi * per_value : (vi + 1) * per_value] for r in c]
        scores = {arm: np.array([r[ai][0] for r in rows]) for ai, arm in enumerate(ARMS)}
        for mi, method in enumerate(methods):
            for ki, metric in enumerate(METRICS):
                a, b = scores["explicit"][:, mi, ki], scores["covariance"][:, mi, ki]
                mean, se, z = paired(a, b)
                worst = max(worst, abs(z))
                print(f"{value:>4g} {method:<11} {metric:<9} {np.nanmean(a):>9.4f} "
                      f"{np.nanmean(b):>10.4f} {mean:>+9.4f} {se:>8.4f} {z:>+6.2f}")
        noise = {arm: np.array([r[ai][1] for r in rows]) for ai, arm in enumerate(ARMS)}
        z_noise = paired(noise["explicit"].mean(axis=1), noise["covariance"].mean(axis=1))[2]
        noise_rows.append((value, noise, z_noise))
        failed = {arm: int(np.isnan(scores[arm][:, :, 0]).sum()) for arm in ARMS}
        if any(failed.values()):
            print(f"{value:>4g} failed estimates: {failed}")

    print(f"\n{'snr':>4} noise eigenvalues / sigma^2: "
          f"{'explicit mean, sd':>18} {'covariance mean, sd':>20} {'z':>6}")
    for value, noise, z_noise in noise_rows:
        e, c = noise["explicit"], noise["covariance"]
        print(f"{value:>4g} {'':>29}{e.mean():>9.4f} {e.std():>8.4f} "
              f"{c.mean():>10.4f} {c.std():>9.4f} {z_noise:>+6.2f}")

    cells = len(spec.values) * len(methods) * len(METRICS)
    if args.quick:
        print(f"\nlargest |z| over {cells} cells: {worst:.2f} (quick run: bound not checked)")
        return 0
    verdict = "within" if worst <= BOUND else "OUTSIDE"
    print(f"\nlargest |z| over {cells} cells: {worst:.2f} ({verdict} {BOUND:g})")
    return 0 if worst <= BOUND else 1


if __name__ == "__main__":
    sys.exit(main())
