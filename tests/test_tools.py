"""The repository's command line tools."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from doalab.methods import METHOD_IDS

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


def test_ab_quick_run_of_a_tree_against_itself():
    # 2 scenes x 10 methods, one row each, and no call whose estimates differ;
    # the timings are not checked.
    out = run_tool("ab.py", "--parent", str(ROOT))
    lines = out.splitlines()
    assert lines[0] == f"parent: {ROOT / 'src' / 'doalab'}"
    assert lines[1] == f"change: {ROOT / 'src' / 'doalab'}"
    rows = [line.split() for line in lines if line.split()[:1] in (["campaign-m16"], ["wide-m64"])]
    assert len(rows) == 20
    assert {row[1] for row in rows} == set(METHOD_IDS)
    for row in rows:
        pairs, ratio, low, high, differ = row[2], row[3], row[4], row[5], row[-1]
        assert int(pairs) == 2 and int(differ) == 0
        assert float(low.strip("[,")) <= float(ratio) <= float(high.strip("]"))
        assert len(row) == 13  # 3 quartiles per side
    assert lines[-1] == "calls with differing estimates: 0 of 40"
