"""Span tracing of doalab from the outside, and the per-layer numbers.

`install` replaces every public function of every loaded doalab module, in
every doalab module namespace that binds it, with a wrapper that records a
span.  Calls therefore show up as their callers see them: a call from
`greedy_estimate` to `greedy_update` is a span because greedy's own
namespace is patched too.  The LAPACK eigendecomposition entry points are
wrapped as well, so eigendecompositions are counted outside the program.

A span is [name, start, end, parent, info]; spans live in memory and are
written as JSON lines when the run ends.  A span's trial is its nearest
`bench.run_trial` ancestor.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import types
from time import perf_counter

import numpy as np
import scipy.linalg

ROOT = "bench.run_trial"
ESTIMATE = "methods.estimate_method"
LAPACK_EVD = {
    "numpy.linalg.eigh": (np.linalg, "eigh"),
    "numpy.linalg.eig": (np.linalg, "eig"),
    "scipy.linalg.eigh": (scipy.linalg, "eigh"),
    "scipy.linalg.eig": (scipy.linalg, "eig"),
}
FAMILIES = ("greedy", "imusic", "music")
METHOD_FAMILY = {
    "omp": "greedy",
    "ols": "greedy",
    "omp-imusic": "imusic",
    "ols-imusic": "imusic",
    "omp-iwmusic": "imusic",
    "ols-iwmusic": "imusic",
    "music-signal": "music",
    "music-noise": "music",
    "wmusic-signal": "music",
    "wmusic-noise": "music",
}
# Extra detail recorded with a span, from the call's positional arguments.
_INFO = {
    ESTIMATE: lambda args: args[0],
    "fastgrid.objective_values": lambda args: int(args[0].shape[1]),
}


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, info(args) if info else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def clear(self):
        self.spans.clear()

    def write(self, path):
        trial = _trial_ids(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, info) in enumerate(self.spans):
                rec = dict(id=i, trial=trial[i], name=name, start=start, end=end, parent=parent)
                if info is not None:
                    rec["info"] = info
                fh.write(json.dumps(rec) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap doalab's public functions and the LAPACK EVD entry points."""
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("doalab.")]
    wrappers = {}
    for name, (mod, attr) in LAPACK_EVD.items():
        fn = getattr(mod, attr)
        wrappers[id(fn)] = tracer.wrap(name, fn)
        setattr(mod, attr, wrappers[id(fn)])
    for mod in modules:
        for attr, fn in list(vars(mod).items()):
            if id(fn) in wrappers:
                setattr(mod, attr, wrappers[id(fn)])
            elif (
                isinstance(fn, types.FunctionType)
                and fn.__module__.startswith("doalab.")
                and not fn.__name__.startswith("_")
            ):
                short = fn.__module__.rsplit(".", 1)[-1]
                wrappers[id(fn)] = tracer.wrap(f"{short}.{fn.__name__}", fn)
                setattr(mod, attr, wrappers[id(fn)])


def _trial_ids(spans) -> list:
    trial = []
    for i, (name, _, _, parent, _) in enumerate(spans):
        trial.append(i if name == ROOT else (trial[parent] if parent >= 0 else -1))
    return trial


def evd_counts_per_estimate(spans) -> dict:
    """LAPACK eigendecompositions inside each *-imusic/*-iwmusic estimate."""
    owner, counts = [], {}
    for i, (name, _, _, parent, info) in enumerate(spans):
        up = owner[parent] if parent >= 0 else -1
        owner.append(i if name == ESTIMATE else up)
        if name == ESTIMATE and METHOD_FAMILY[info] == "imusic":
            counts[i] = 0
        elif name in LAPACK_EVD and up in counts:
            counts[up] += 1
    by_method = {}
    for i, c in counts.items():
        by_method.setdefault(spans[i][4], []).append(c)
    return by_method


def layer_metrics(spans, k_hats) -> dict:
    """Per-layer numbers, per trial unless the name says otherwise.

    Only spans inside a `bench.run_trial` count; ``k_hats`` are the run's
    estimated orders, averaged into ``order.k_hat_mean``.
    """
    trial = _trial_ids(spans)
    n = max(1, sum(1 for s in spans if s[0] == ROOT))
    family, child_ms = [], [0.0] * len(spans)
    total, calls, self_ms = {}, {}, {}
    estimate_ms = {m: [] for m in METHOD_FAMILY}
    for i, (name, start, end, parent, info) in enumerate(spans):
        ms = 1e3 * (end - start)
        if name == ESTIMATE:
            family.append(METHOD_FAMILY[info])
        else:
            family.append(family[parent] if parent >= 0 else "order")
        if parent >= 0:
            child_ms[parent] += ms
        if trial[i] < 0:
            continue
        pname = spans[parent][0] if parent >= 0 else ""
        key = name
        if name == "scenario.steering_matrix":
            key = "steering" if pname in ("greedy.greedy_update", "gimusic.gimusic_update") else None
        elif name in ("scenario.draw_targets", "scenario.synthesize_observation"):
            key = "synthesize" if pname == ROOT else None
        elif name == "fastgrid.objective_values":
            key = f"objective.{family[i]}"
            calls[f"columns.{family[i]}"] = calls.get(f"columns.{family[i]}", 0) + info
        elif name == "linalg.hermitian_evd":
            calls[f"evd.{family[i]}"] = calls.get(f"evd.{family[i]}", 0) + 1
        elif name.startswith("metrics.") and pname == ROOT:
            key = "scoring"
        elif name == ESTIMATE:
            estimate_ms[info].append(ms)
        if key is not None:
            total[key] = total.get(key, 0.0) + ms
            calls[key] = calls.get(key, 0) + 1
    for i, (name, start, end, _, _) in enumerate(spans):
        if trial[i] >= 0:
            self_ms[name] = self_ms.get(name, 0.0) + 1e3 * (end - start) - child_ms[i]

    def per_trial(table, key):
        return table.get(key, 0) / n

    out = {
        "scenario.synthesize_ms": per_trial(total, "synthesize"),
        "scenario.steering_ms": per_trial(total, "steering"),
        "subspace.sample_covariance_ms": per_trial(total, "subspace.sample_covariance"),
        "fastgrid.make_grid_ms": per_trial(total, "fastgrid.make_grid"),
        "fastgrid.make_grid_calls": per_trial(calls, "fastgrid.make_grid"),
    }
    for f in FAMILIES + ("order",):
        out[f"fastgrid.objective_ms.{f}"] = per_trial(total, f"objective.{f}")
        out[f"fastgrid.objective_calls.{f}"] = per_trial(calls, f"objective.{f}")
        out[f"fastgrid.operand_columns.{f}"] = per_trial(calls, f"columns.{f}")
    out["linalg.projectors_ms"] = per_trial(total, "linalg.projectors")
    out["linalg.projectors_calls"] = per_trial(calls, "linalg.projectors")
    out["linalg.evd_ms"] = per_trial(total, "linalg.hermitian_evd")
    for f in FAMILIES + ("order",):
        out[f"linalg.evd_calls.{f}"] = per_trial(calls, f"evd.{f}")
    for layer in ("greedy.greedy_update", "gimusic.gimusic_update"):
        short = layer.split(".")[0]
        out[f"{short}.update_ms"] = per_trial(self_ms, layer)
        out[f"{short}.iterations"] = per_trial(calls, layer)
    for method, values in estimate_ms.items():
        out[f"methods.estimate_ms.{method}.p50"] = statistics.median(values) if values else 0.0
    out["order.aic_rank_ms"] = per_trial(total, "order.aic_rank")
    out["order.hybrid_order_ms"] = per_trial(total, "order.hybrid_order")
    out["order.k_hat_mean"] = float(np.mean(k_hats)) if k_hats else 0.0
    out["metrics.scoring_ms"] = per_trial(total, "scoring")
    out["bench.trial_self_ms"] = per_trial(self_ms, ROOT)
    return out
