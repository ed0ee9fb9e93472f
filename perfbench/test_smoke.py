"""Smoke test of the benchmark itself: every workload in both modes, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import itertools
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import session  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(cwd, workload, trace):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "0.1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path)
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_hits_range_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(200):
        K, n = int(rng.integers(1, 5)), int(rng.integers(0, 6))
        true_u = np.round(rng.uniform(-1, 1, K), 1)
        est_u = np.round(rng.uniform(-1, 1, n), 1)
        need = min(K, n)
        scored = []
        for ts in itertools.permutations(range(K), need):
            for es in itertools.combinations(range(n), need):
                errs = [abs(true_u[t] - est_u[e]) for t, e in zip(ts, es)]
                scored.append((sum(errs), sum(d < 0.3 for d in errs)))
        best = min(c for c, _ in scored)
        hits = [h for c, h in scored if c <= best + 1e-12]
        low, high = checks.hits_range(true_u, est_u[None, :], 0.3)
        assert (low[0], high[0]) == (min(hits), max(hits))


def test_pooled_failures_counts_the_worst_method_per_sweep_value():
    table = SimpleNamespace(
        warnings=[
            "ols at snr_db=20.0: 3/48 trials failed",
            "omp at snr_db=20.0: 5/48 trials failed",
            "ols at snr_db=40.0: 4/48 trials failed",
        ]
    )
    assert session.pooled_failures(table) == 9
    with pytest.raises(checks.CheckFailed):
        session.pooled_failures(SimpleNamespace(warnings=["something else"]))
