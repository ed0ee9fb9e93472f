"""Seeded Monte Carlo benchmark harness with CSV output.

A sweep runs a grid of (sweep value x trial) scenarios.  A trial draws its
sample covariance directly (:func:`doalab.scenario.draw_covariance`, exact
in distribution, without the M x L observation).  Within a trial every
method sees the identical covariance draw and — when their order criteria
match — the identical estimated target count, so metric differences are
attributable to the estimators alone.  Only the estimate call itself is
timed; synthesis, order selection (:func:`doalab.order.model_orders`), and
scoring stay outside the clock.

Per-trial randomness comes from independent streams derived from the base
seed and the trial index, so metric columns are bit-reproducible for a given
spec and adding trials never perturbs earlier ones, whichever process runs
a trial.  A pooled sweep starts its child processes with the platform's
default method (fork on Linux before Python 3.14, spawn on macOS and
Windows); a forked child inherits the caller's modules, grid cache and BLAS
thread count, so pin BLAS before numpy loads, as ``doalab sweep`` does, for
every process to be single-threaded.
"""

from __future__ import annotations

import csv
import math
import os
import sys
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, fields, replace
from time import perf_counter
from typing import get_type_hints

import numpy as np

from doalab import pin_blas_threads
from doalab.fastgrid import EVALUATORS, make_grid
from doalab.methods import METHOD_IDS, estimate_method
from doalab.metrics import (
    associate,
    detection_metrics,
    diagnostics,
    rmse_common_hits,
)
from doalab.order import ORDER_CRITERIA, model_orders
from doalab.scenario import (
    GroundTruth,
    ScenarioConfig,
    coefficient_gram,
    draw_covariance,
    draw_targets,
    trial_rng,
)

SWEEP_PARAMETERS = ("snr_db", "targets", "subcarriers", "antennas")

# Fraction of per-method trial failures at one sweep point that triggers a
# sweep warning.
FAILURE_WARN_FRACTION = 0.05
# Fraction of timings dropped from each end before averaging mean_time_ms.
TRIM_FRACTION = 0.05
# Trials per chunk handed to a child process (started with the platform's
# default method), and chunks a child may hold at once: enough to keep it
# busy between the caller's own trials, few enough that the caller's shared
# cursor takes the rest.
CHUNK_TRIALS = 2
CHUNKS_PER_CHILD = 2

_SCENARIO_TYPES = get_type_hints(ScenarioConfig)


def _check_trial_args(methods: tuple, criteria: tuple, evaluator: str) -> None:
    """The argument checks of ``run_trial`` (see its Raises), shared with
    ``SweepSpec.validate``."""
    if len(set(methods)) != len(methods):
        raise ValueError("method ids must be unique")
    for m in methods:
        if m not in METHOD_IDS:
            raise ValueError(f"unknown method id: {m!r}")
    if len(criteria) != len(methods):
        raise ValueError(
            f"need one order criterion per method, got {len(criteria)} for {len(methods)} methods"
        )
    for c in criteria:
        if c not in ORDER_CRITERIA:
            raise ValueError(f"unknown order criterion in order_criterion: {c!r}")
    if evaluator not in EVALUATORS:
        raise ValueError(f"unknown evaluator: {evaluator!r}")


@dataclass(frozen=True)
class SweepSpec:
    """One benchmark campaign.

    Attributes:
        parameter: Scenario field being swept.
        values: Values the parameter takes.
        methods: Method ids to compare.
        base: Scenario configuration the sweep perturbs.
        trials: Monte Carlo trials per sweep value.
        order_criterion: How every method obtains its target count, one
            token of :data:`doalab.order.ORDER_CRITERIA`: "true-k" uses the
            configured count (order selection off), "rank-aic" the
            eigenvalue criterion, "hybrid" the greedy extension of it.
        evaluator: Grid evaluator for every method.
    """

    parameter: str
    values: tuple
    methods: tuple
    base: ScenarioConfig
    trials: int = 500
    order_criterion: str = "true-k"
    evaluator: str = "fft"

    def validate(self) -> None:
        """Raise ValueError on anything the sweep cannot run as given,
        including a value that the swept field's type would change (2.5
        targets)."""
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValueError(f"unknown sweep parameter: {self.parameter!r}")
        if not self.values:
            raise ValueError("values must be non-empty")
        kind = _SCENARIO_TYPES[self.parameter]
        for value in self.values:
            if kind(value) != value:
                raise ValueError(
                    f"{self.parameter} value {value!r} is not a valid {kind.__name__}"
                )
        if not self.methods:
            raise ValueError("methods must be non-empty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        _check_trial_args(
            self.methods, (self.order_criterion,) * len(self.methods), self.evaluator
        )
        self.base.validate()


@dataclass(frozen=True)
class MethodOutcome:
    """One method's result on one trial."""

    method: str
    k_hat: int
    seconds: float
    estimates: np.ndarray
    hit_rate: float
    fa_rate: float
    youden_j: float
    rmse: float | None
    error: str | None = None


@dataclass(frozen=True)
class TrialResult:
    """All per-method outcomes and scene diagnostics for one trial."""

    trial_index: int
    truth: GroundTruth
    outcomes: dict
    t_metric: float
    s_metric: float


@dataclass(frozen=True)
class ResultRow:
    """Aggregated metrics for one (sweep value, method) cell."""

    sweep_param: str
    sweep_value: float
    method: str
    criterion: str
    evaluator: str
    trials: int
    youden_j: float
    hit_rate: float
    fa_rate: float
    rmse: float
    rmse_coverage: float
    mean_time_ms: float
    t_metric: float
    s_metric: float
    mean_k_hat: float
    seed: int


# CSV column order (one row per (sweep value, method)) and column types.
RESULT_FIELDS = tuple(f.name for f in fields(ResultRow))
_FIELD_TYPES = get_type_hints(ResultRow)


class ResultTable(list):
    """List of ResultRow plus any sweep-level warnings."""

    def __init__(self, rows=(), warnings=()):
        super().__init__(rows)
        self.warnings = list(warnings)


def run_trial(
    cfg: ScenarioConfig,
    trial_index: int,
    methods: tuple,
    criteria: tuple | None = None,
    evaluator: str = "fft",
) -> TrialResult:
    """Draw one scenario and score every method on it.

    The trial's stream first draws the targets, then their sample
    covariance (:func:`doalab.scenario.draw_covariance`, from the closed-form
    coefficient Gram that also feeds the scene diagnostics).  The
    covariance, the search grid, and each order criterion's target count
    (:func:`doalab.order.model_orders`) are computed once and shared across
    methods.  A failure inside an estimate is captured in its outcome rather
    than raised, so one bad trial never aborts a sweep; arguments no trial
    could run are rejected before anything is drawn.

    Args:
        cfg: Scenario configuration (its seed plus ``trial_index`` fix the
            random stream).
        trial_index: Trial number within the sweep.
        methods: Method ids to run.
        criteria: One order criterion per method, aligned with
            ``methods`` (default: true-k for all).
        evaluator: "fft" or "direct".

    Raises:
        ValueError: On a duplicate or unknown method id, a criteria tuple
            whose length is not the method count, an unknown order
            criterion, or an unknown evaluator.
    """
    if criteria is None:
        criteria = ("true-k",) * len(methods)
    _check_trial_args(methods, criteria, evaluator)
    rng = trial_rng(cfg.seed, trial_index)
    truth = draw_targets(cfg, rng)
    gram = coefficient_gram(truth, cfg)
    R = draw_covariance(truth, gram, cfg, rng)
    grid = make_grid(cfg.grid_points, cfg.antennas)
    M = cfg.antennas
    k_by_criterion = model_orders(R, criteria, cfg.targets, cfg.snapshots, grid, evaluator)

    raw, assocs = {}, {}
    for method, crit in zip(methods, criteria):
        k_hat = k_by_criterion[crit]
        start = perf_counter()
        try:
            est = estimate_method(method, R, k_hat, grid, evaluator)
            seconds = perf_counter() - start
            error = None
        except Exception as exc:  # per-trial failures are data, not crashes
            est = np.empty(0, dtype=float)
            seconds = math.nan
            error = f"{type(exc).__name__}: {exc}"
        raw[method] = (k_hat, seconds, est, error)
        assocs[method] = associate(truth.doas, est)

    rmse = rmse_common_hits(assocs, M)
    outcomes = {}
    for method, (k_hat, seconds, est, error) in raw.items():
        det = detection_metrics(assocs[method], M)
        outcomes[method] = MethodOutcome(
            method=method,
            k_hat=k_hat,
            seconds=seconds,
            estimates=est,
            hit_rate=det.hit_rate,
            fa_rate=det.fa_rate,
            youden_j=det.youden_j,
            rmse=rmse[method],
            error=error,
        )
    diag = diagnostics(truth, gram, M)
    return TrialResult(
        trial_index=trial_index,
        truth=truth,
        outcomes=outcomes,
        t_metric=diag.t_metric,
        s_metric=diag.s_metric,
    )


def _apply_sweep_value(base: ScenarioConfig, parameter: str, value) -> ScenarioConfig:
    return replace(base, **{parameter: _SCENARIO_TYPES[parameter](value)})


def _run_chunk(tasks):
    return [run_trial(*task) for task in tasks]


def _run_tasks(tasks: list, processes: int) -> list:
    """``run_trial`` over every task on ``processes`` processes, in task order.

    The calling process runs trials one at a time from a shared cursor while
    ``processes - 1`` children are fed CHUNK_TRIALS-trial chunks from the
    same cursor, at most CHUNKS_PER_CHILD outstanding per child, so nobody
    idles while trials remain and no child starts for a single process.
    The children start with the platform's default method.  A forked child
    (Linux before Python 3.14) runs its first chunk at once, with the
    caller's modules, grid cache and BLAS thread count; a spawned one
    imports doalab first, and its BLAS loads with the thread variables
    :func:`doalab.pin_blas_threads` pins here (it leaves variables the
    caller set alone, and they stay set in the caller's environment).
    Results are stored by task index.  On a normal return the pool is shut
    down and waited for, so no child or pool thread outlives the call and a
    later sweep never forks beside a live pool thread.  On any exception the
    chunks not yet started are cancelled and the exception is re-raised
    without waiting for the children's current chunks, which finish in the
    background, reaped by the pool's own thread.
    """
    results, pending, cursor = [None] * len(tasks), {}, 0
    children = min(processes, len(tasks)) - 1
    if children:
        pin_blas_threads()
    pool = ProcessPoolExecutor(children) if children else None
    try:
        while cursor < len(tasks) or pending:
            while cursor < len(tasks) and len(pending) < CHUNKS_PER_CHILD * children:
                chunk = tasks[cursor : cursor + CHUNK_TRIALS]
                pending[pool.submit(_run_chunk, chunk)] = cursor  # its first task's index
                cursor += len(chunk)
            for future in [f for f in pending if f.done()]:
                start, chunk = pending.pop(future), future.result()
                results[start : start + len(chunk)] = chunk
            if cursor < len(tasks):
                results[cursor] = run_trial(*tasks[cursor])
                cursor += 1
            elif pending:
                wait(pending, return_when=FIRST_COMPLETED)
    except BaseException:
        if pool:  # cancels what is left; never waits on a child
            pool.shutdown(wait=False, cancel_futures=True)
        raise
    if pool:
        pool.shutdown()
    return results


def trimmed_mean(values) -> float:
    """Mean after dropping the top and bottom TRIM_FRACTION of values."""
    xs = np.sort(np.asarray(values, dtype=float))
    drop = int(len(xs) * TRIM_FRACTION)
    kept = xs[drop : len(xs) - drop] if drop else xs
    return float(np.mean(kept)) if kept.size else math.nan


def _worker_count(workers: int | None) -> int:
    if workers is not None:
        return max(1, workers)
    env = os.environ.get("DOALAB_THREADS", "")
    if env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"DOALAB_THREADS must be an integer, got {env!r}")
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(
    spec: SweepSpec,
    serial: bool = False,
    workers: int | None = None,
) -> ResultTable:
    """Run a full sweep and aggregate per-(value, method) rows.

    Trials run on ``workers`` processes, the calling process included: it
    runs trials itself beside ``workers - 1`` child processes, started with
    the platform's default method (fork on Linux before Python 3.14, spawn
    on macOS and Windows).  The count comes from ``workers``, the
    DOALAB_THREADS environment variable, or the number of CPUs this process
    may run on; ``serial=True`` (like a count of 1) keeps every trial
    in-process and starts no child, for clean timing.  A forked child
    inherits the caller's modules, grid cache and BLAS thread count; a
    spawned child runs with BLAS pinned to one thread unless the caller set
    the thread variables itself.  A loaded BLAS cannot be re-pinned, so
    pin the caller before importing numpy (``doalab sweep`` does) for
    every process to be single-threaded.  No child outlives a normal
    return.  Metric columns depend only on the spec and seed; timing
    columns depend on the machine.

    Per-method trial failures are excluded from that method's aggregates; a
    sweep point where more than 5% of a method's trials failed is reported
    in the table's ``warnings`` and on stderr.
    """
    spec.validate()
    criteria = (spec.order_criterion,) * len(spec.methods)
    tasks = []
    for value in spec.values:
        cfg_v = _apply_sweep_value(spec.base, spec.parameter, value)
        cfg_v.validate()
        for t in range(spec.trials):
            tasks.append((cfg_v, t, tuple(spec.methods), criteria, spec.evaluator))

    results = _run_tasks(tasks, 1 if serial else _worker_count(workers))

    rows, warnings = [], []
    for vi, value in enumerate(spec.values):
        trials = results[vi * spec.trials : (vi + 1) * spec.trials]
        t_metric = float(np.mean([tr.t_metric for tr in trials]))
        s_metric = float(np.mean([tr.s_metric for tr in trials]))
        for method in spec.methods:
            outs = [tr.outcomes[method] for tr in trials]
            ok = [o for o in outs if o.error is None]
            failures = len(outs) - len(ok)
            if failures > FAILURE_WARN_FRACTION * len(outs):
                msg = (
                    f"{method} at {spec.parameter}={value}: "
                    f"{failures}/{len(outs)} trials failed"
                )
                warnings.append(msg)
                print(f"warning: {msg}", file=sys.stderr)
            defined = [o.rmse for o in ok if o.rmse is not None]
            rows.append(
                ResultRow(
                    sweep_param=spec.parameter,
                    sweep_value=float(value),
                    method=method,
                    criterion=spec.order_criterion,
                    evaluator=spec.evaluator,
                    trials=spec.trials,
                    youden_j=_mean(o.youden_j for o in ok),
                    hit_rate=_mean(o.hit_rate for o in ok),
                    fa_rate=_mean(o.fa_rate for o in ok),
                    rmse=float(np.mean(defined)) if defined else math.nan,
                    rmse_coverage=len(defined) / spec.trials,
                    mean_time_ms=1e3 * trimmed_mean([o.seconds for o in ok])
                    if ok
                    else math.nan,
                    t_metric=t_metric,
                    s_metric=s_metric,
                    mean_k_hat=_mean(o.k_hat for o in ok),
                    seed=spec.base.seed,
                )
            )
    rows.sort(key=lambda r: (r.sweep_value, r.method))
    return ResultTable(rows, warnings)


def _mean(values) -> float:
    xs = list(values)
    return float(np.mean(xs)) if xs else math.nan


def _format_field(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".9g")


def emit_csv(table, path: str) -> None:
    """Write result rows as UTF-8 CSV, floats at 9 significant digits.

    Rows are (re)ordered by sweep value then method id so output is
    deterministic regardless of how the table was assembled.

    Raises:
        ValueError: If the table has no rows.
        OSError: If the path cannot be written (message carries the path).
    """
    rows = sorted(table, key=lambda r: (r.sweep_value, r.method))
    if not rows:
        raise ValueError("refusing to write an empty result table")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_FIELDS)
        for row in rows:
            writer.writerow(
                [_format_field(getattr(row, name)) for name in RESULT_FIELDS]
            )


def load_results(path: str) -> ResultTable:
    """Parse a CSV written by :func:`emit_csv` back into ResultRows.

    Raises:
        ValueError: On a foreign header or a malformed row (a field count
            other than the header's, or a field that does not parse as its
            column's type); the message names the path and the row's line.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != RESULT_FIELDS:
            raise ValueError(f"unexpected CSV header in {path}")
        for record in reader:
            where = f"{path}, line {reader.line_num}"
            if len(record) != len(RESULT_FIELDS):
                raise ValueError(
                    f"{where}: expected {len(RESULT_FIELDS)} fields, got {len(record)}"
                )
            values = {}
            for name, text in zip(RESULT_FIELDS, record):
                kind = _FIELD_TYPES[name]
                try:
                    values[name] = kind(text)
                except ValueError:
                    raise ValueError(f"{where}: {name} is not {kind.__name__}: {text!r}") from None
            rows.append(ResultRow(**values))
    return ResultTable(rows)
