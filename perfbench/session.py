"""One measuring process of the benchmark (started by run.py).

Imports doalab, warms up, runs the timed part of one workload, checks the
outputs and prints one JSON line.  With ``--setup-only`` it stops after the
warm-up and prints only its set-up time.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import sys
import time
from dataclasses import replace
from time import perf_counter
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import doalab  # noqa: E402
import doalab.bench  # noqa: E402  (loads every layer, so tracing sees them all)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Trials whose music-signal pseudospectrum is checked, per run.
SPECTRUM_CHECKS = 3
# Trials per SNR value in the pooled-versus-serial prefix sweep.
PREFIX_TRIALS = 2


def _scene(kwargs):
    return doalab.ScenarioConfig(**kwargs)


def _sweep(w, seed):
    base = _scene(dict(w.scene, seed=seed))
    return doalab.SweepSpec(
        parameter="snr_db",
        values=w.snrs,
        methods=doalab.METHOD_IDS,
        base=base,
        trials=w.round_trials,
        order_criterion=w.criterion,
        evaluator=w.evaluator,
    )


def warm_up(w, seed):
    """Fill lazy caches with trials outside the timed set."""
    crit = (w.criterion,) * len(doalab.METHOD_IDS)
    for j in range(workloads.WARMUP_TRIALS):
        cfg = _scene(workloads.trial_scene(w, seed, j))
        doalab.run_trial(cfg, workloads.WARMUP_INDEX_BASE + j, doalab.METHOD_IDS, crit, w.evaluator)


class Trial(NamedTuple):
    scene: dict  # ScenarioConfig keyword arguments
    index: int
    wall_s: float
    result: object  # TrialResult, or None when run_trial raised
    error: str | None  # first error of the trial, raised or per method


class Sweep(NamedTuple):
    wall_s: float
    trials: int
    rows: object  # ResultTable
    worker_cpu_s: float
    parent_cpu_s: float


def run_serial(w, seed, seconds) -> list:
    """Whole rounds of run_trial calls; returns each round's trials and wall time.

    A trial that raises, or in which any method reports an error, is a
    failed trial; it is kept and counted.
    """
    crit = (w.criterion,) * len(doalab.METHOD_IDS)
    scenes = [workloads.trial_scene(w, seed, i) for i in range(w.round_trials)]
    rounds = []
    begin = perf_counter()
    while True:
        trials = []
        round_start = perf_counter()
        for index, kwargs in enumerate(scenes):
            start = perf_counter()
            try:
                res = doalab.run_trial(_scene(kwargs), index, doalab.METHOD_IDS, crit, w.evaluator)
                error = next((f"{m}: {o.error}" for m, o in res.outcomes.items() if o.error), None)
            except Exception as exc:  # a failing trial is a counted outcome
                res, error = None, f"{type(exc).__name__}: {exc}"
            trials.append(Trial(kwargs, index, perf_counter() - start, res, error))
        rounds.append((trials, perf_counter() - round_start))
        if perf_counter() - begin >= seconds:
            return rounds


def run_pooled(w, seed, seconds) -> list:
    """Whole run_sweep calls on the pool, the same sweep every round."""
    spec = _sweep(w, workloads.scene_seed(w, seed))
    sweeps = []
    begin = perf_counter()
    while True:
        kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        self0 = resource.getrusage(resource.RUSAGE_SELF)
        start = perf_counter()
        rows = doalab.run_sweep(spec, workers=workloads.POOL_WORKERS)
        wall = perf_counter() - start
        kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        self1 = resource.getrusage(resource.RUSAGE_SELF)
        sweeps.append(
            Sweep(
                wall,
                len(spec.values) * spec.trials,
                rows,
                _cpu(kids1) - _cpu(kids0),
                _cpu(self1) - _cpu(self0),
            )
        )
        if perf_counter() - begin >= seconds:
            return sweeps


# run_sweep's warning for a (sweep value, method) cell in which more than 5%
# of the method's trials failed.
_SWEEP_WARNING = re.compile(r"^(?P<method>\S+) at (?P<point>\S+): (?P<failed>\d+)/\d+ trials failed$")


def pooled_failures(table) -> int:
    """Failed trials of one sweep, as far as run_sweep reports them.

    run_sweep drops failed outcomes from its rows and names only the cells
    where more than 5% of a method's trials failed, so per sweep value the
    largest failure count of a named method is counted: a lower bound that
    reads 0 when every cell stays under the warning line.
    """
    worst = {}
    for msg in table.warnings:
        m = _SWEEP_WARNING.match(msg)
        if m is None:
            raise checks.CheckFailed(f"unrecognised sweep warning: {msg}")
        worst[m["point"]] = max(worst.get(m["point"], 0), int(m["failed"]))
    return sum(worst.values())


def _cpu(usage):
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb(pooled):
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not pooled:
        return own
    # ru_maxrss of the children is the largest single worker's peak; count
    # it once per worker, as if all peaked at the same time.
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own + workloads.POOL_WORKERS * kids


def _family_ms(times):
    """Per family, the mean over its methods of each method's median, in ms.

    A family's methods differ in cost (ols is slower than omp), so the
    median of their pooled times falls in the gap between them and swings
    with the tails of both; the median of each method does not.
    """
    family = {f: [] for f in tracing.FAMILIES}
    for method, values in times.items():
        family[tracing.METHOD_FAMILY[method]].append(statistics.median(values))
    return {f"estimate_ms.{f}.p50": 1e3 * statistics.fmean(v) for f, v in family.items()}


def serial_metrics(rounds):
    """End-to-end numbers: plain wall time and MethodOutcome.seconds.

    trials_per_s is the median over rounds of each round's completed trials
    per second, so one slow spell moves one round, not the run.
    """
    trials = [t for r, _ in rounds for t in r]
    times = {}
    for t in trials:
        if t.result is None:
            continue
        for method, out in t.result.outcomes.items():
            if out.error is None:
                times.setdefault(method, []).append(out.seconds)
    return {
        "trials_per_s": statistics.median(
            sum(t.error is None for t in r) / wall for r, wall in rounds
        ),
        "trial_ms.p50": 1e3 * statistics.median(t.wall_s for t in trials),
        **_family_ms(times),
    }


def pooled_metrics(sweeps, failed):
    """End-to-end numbers, one trials_per_s and trial_ms sample per sweep.

    Per-estimate times are the sweeps' per-cell trimmed means
    (``mean_time_ms``), the only estimate timings ``run_sweep`` returns.
    """
    times = {}
    for s in sweeps:
        for row in s.rows:
            times.setdefault(row.method, []).append(row.mean_time_ms / 1e3)
    return {
        "trials_per_s": statistics.median(
            (s.trials - f) / s.wall_s for s, f in zip(sweeps, failed)
        ),
        "trial_ms.p50": 1e3 * statistics.median(s.wall_s / s.trials for s in sweeps),
        **_family_ms(times),
    }


POOL_METRICS = ("bench.pool.worker_cpu_s", "bench.pool.parent_cpu_s", "bench.pool.busy_ratio")


def pool_metrics(sweeps):
    """CPU per trial of the workers and of the parent, and worker busy share."""
    trials = sum(s.trials for s in sweeps)
    worker_cpu = sum(s.worker_cpu_s for s in sweeps)
    busy = worker_cpu / (workloads.POOL_WORKERS * sum(s.wall_s for s in sweeps))
    parent_cpu = sum(s.parent_cpu_s for s in sweeps)
    return dict(zip(POOL_METRICS, (worker_cpu / trials, parent_cpu / trials, busy)))


def check_serial(w, rounds):
    """Checks on the first round; every later round must repeat it."""
    first = rounds[0][0]
    grid_angles = checks.own_grid(w.grid_points)
    done = [t for t in first if t.error is None]
    for t in done:
        checks.check_estimates(t.result, grid_angles)
        checks.check_scores(t.result, w.antennas)
    for t in done[:SPECTRUM_CHECKS]:
        checks.check_music_spectrum(_scene(t.scene), t.index, t.result, w.evaluator)
    for trials, _ in rounds[1:]:
        checks.check_repeat(first, trials)


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() at launch")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--trace-out", default=None)
    args = p.parse_args(argv)

    w = workloads.WORKLOADS[args.workload]
    if args.smoke:
        w = workloads.smoke(w)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    warm_up(w, args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if tracer:
        tracer.clear()

    failures = {}
    if w.pooled:
        sweeps = run_pooled(w, args.seed, args.seconds)
        attempted = sum(s.trials for s in sweeps)
        per_sweep = [pooled_failures(s.rows) for s in sweeps]
        failed = sum(per_sweep)
        for s in sweeps:
            for msg in s.rows.warnings:
                failures[msg] = failures.get(msg, 0) + 1
        metrics = pooled_metrics(sweeps, per_sweep)
        pool = pool_metrics(sweeps)
        k_hats = [row.mean_k_hat for s in sweeps for row in s.rows]
        # In a traced run the serial half of this check supplies the spans.
        prefix = replace(_sweep(w, workloads.scene_seed(w, args.seed)), trials=PREFIX_TRIALS)
        checks.check_pool_prefix(prefix, workloads.POOL_WORKERS)
    else:
        rounds = run_serial(w, args.seed, args.seconds)
        metrics = serial_metrics(rounds)
        trials = [t for r, _ in rounds for t in r]
        attempted = len(trials)
        for t in trials:
            if t.error is not None:
                failures[t.error] = failures.get(t.error, 0) + 1
        failed = sum(failures.values())
        pool = dict.fromkeys(POOL_METRICS, 0.0)  # no pool in a serial run
        k_hats = [o.k_hat for t in trials if t.result for o in t.result.outcomes.values()]
        check_serial(w, rounds)
    checks.check_exact_scene(w.antennas, w.targets, w.grid_points, w.evaluator)

    if tracer:
        checks.check_single_evd(tracing.evd_counts_per_estimate(tracer.spans))
        out = tracing.layer_metrics(tracer.spans, k_hats)
        out.update(pool)
        out["bench.traced_trials_per_s"] = metrics["trials_per_s"]
        if args.trace_out:
            tracer.write(args.trace_out)
    else:
        out = dict(metrics, setup_s=setup_s, peak_rss_mb=_peak_rss_mb(w.pooled))
    for error, count in sorted(failures.items()):
        print(f"failed {count}x: {error}", file=sys.stderr)
    print(json.dumps({"attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        sys.exit(3)
