"""The repository's command line tools."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_digest(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "estimate_digest.py"), "--quick", *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.split()


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
