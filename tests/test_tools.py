"""The repository's command line tools."""

import hashlib
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np

from doalab.bench import run_trial
from doalab.config import parse_config

ROOT = Path(__file__).resolve().parents[1]


def run_tool(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / name), "--quick", *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


def run_digest(*args):
    return run_tool("estimate_digest.py", *args).split()


def test_estimate_digest_is_reproducible(tmp_path):
    # One trial per scene set: 7 sets x 2 evaluators x 10 methods.  Two runs
    # give the same digest, and the digest is the SHA-256 of the --out lines.
    out = tmp_path / "outcomes.jsonl"
    first = run_digest("--out", str(out))
    second = run_digest()
    assert first == second
    digest, count = first[0], int(first[1])
    lines = out.read_bytes().splitlines(keepends=True)
    assert count == len(lines) == 140
    assert hashlib.sha256(b"".join(lines)).hexdigest() == digest
    records = [json.loads(line) for line in lines]
    assert {r["evaluator"] for r in records} == {"fft", "direct"}
    assert all(r["error"] is None for r in records)


def test_synthesis_ab_quick_run_is_reproducible():
    # 5 SNR values x 5 methods x 3 metrics of demos/snr_sweep.cfg, then one
    # noise-eigenvalue row per SNR and the largest |z|.
    first = run_tool("synthesis_ab.py")
    assert run_tool("synthesis_ab.py") == first
    lines = first.splitlines()
    cells = [line for line in lines if line.split()[2:3] in (["hit_rate"], ["fa_rate"], ["youden_j"])]
    assert len(cells) == 75
    assert lines[-1].startswith("largest |z| over 75 cells")
    assert "failed estimates" not in first


def test_synthesis_ab_covariance_arm_is_run_trial():
    # The covariance arm scores exactly what run_trial scores on its trial.
    tool = runpy.run_path(str(ROOT / "tools" / "synthesis_ab.py"))
    spec = parse_config(str(tool["CONFIG"]))
    for trial in (0, 1):
        scores, _ = tool["run_arm"]("covariance", spec.base, trial, spec.methods, spec.evaluator)
        result = run_trial(spec.base, trial, spec.methods, None, spec.evaluator)
        expected = [
            [getattr(result.outcomes[m], k) for k in tool["METRICS"]] for m in spec.methods
        ]
        np.testing.assert_array_equal(scores, expected)
