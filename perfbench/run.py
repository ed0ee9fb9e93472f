"""Run one doalab benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload campaign-m16 --seed 1 --seconds 15 --trace 0

The measuring process and its set-up repeats run as child interpreters with
BLAS pinned to one thread and ``src`` on the path.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the same workload with every doalab
layer wrapped in spans and prints the per-layer metrics, writing the spans
to ``.perfbench/trace-<workload>.jsonl``.
The exit code is non-zero, and no result is printed, when the source tree is
missing, a trial loop crashes, or a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
# Bytecode cache of the child interpreters.  Its copy of this checkout's
# modules is removed before every start (see _session), so doalab is
# compiled afresh each time, whatever __pycache__ an earlier test run left
# in src; numpy, scipy and the standard library are compiled once.
PYCACHE = os.path.join(OUT_DIR, "pycache")
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Interpreter starts per untraced run whose set-up time is measured; the
# median is reported.
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _session(argv: list, timeout: float) -> dict:
    shutil.rmtree(os.path.join(PYCACHE, ROOT.lstrip(os.sep)), ignore_errors=True)
    cmd = [sys.executable, os.path.join(HERE, "session.py"), *argv, "--t0", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny scenes, for the smoke test")
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "doalab", "__init__.py")):
        print(f"error: {ROOT}/src/doalab not found", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    argv = [*common, "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.trace:
        argv += ["--trace-out", os.path.join(OUT_DIR, f"trace-{args.workload}.jsonl")]
    result = _session(argv, CHILD_TIMEOUT_S)
    metrics = result["metrics"]
    if not args.trace:
        repeats = 1 if args.smoke else SETUP_REPEATS
        setups = [metrics["setup_s"]]
        setups += [_session([*common, "--setup-only"], 60)["setup_s"] for _ in range(repeats - 1)]
        metrics["setup_s"] = statistics.median(setups)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(units) ^ set(metrics))} are not "
              "both declared in BENCHMARK.json and measured", file=sys.stderr)
        return 4
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
