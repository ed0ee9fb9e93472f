"""Lockstep per-call timing and estimate bits of two source trees.

    git archive <rev> src | tar -x -C <dir>
    PYTHONPATH=src python3 tools/ab.py --parent <dir> [--quick] [--seed S]

Compares the ``src`` tree under ``<dir>`` (the parent) with this checkout's
``src`` (the change).  Each tree gets one worker process, started with
``doalab.pin_blas_threads()`` so BLAS runs at one thread, and only one
worker runs at a time: the other waits on its pipe.  Which worker starts
first is drawn from the ``--seed`` generator and printed on the seed line,
so runs at different seeds show whether start order biases the ratios.

Both workers get the same ``INPUTS`` seeded ``draw_covariance`` inputs of
the campaign-m16 and wide-m64 scenes of ``tools/estimate_digest.py`` (trial
t of seed S, SNR cycled as there), and estimate them with all 10 method ids
at the true K on the fft evaluator.  After one untimed warm-up call per
scene and method, each input and method runs on the two trees back to back,
in random order, for ``ROUNDS`` rounds; each call is timed inside its worker
with ``perf_counter``.  Pairing single calls lets the machine's drift cancel
inside each pair.

Per scene and method the tool prints the number of pairs, the median of the
per-call ratios change/parent (below 1: the change is faster), its 95%
bootstrap CI, each side's quartiles in ms, and the number of calls whose
estimates (or error strings) differ between the trees; last, the total of
differing calls.  ``--quick`` runs ``QUICK_INPUTS`` inputs for one round.
"""

from __future__ import annotations

import argparse
import os
import pickle
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import doalab

doalab.pin_blas_threads()  # before numpy loads, in this process and in each worker

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SCENES = ("campaign-m16", "wide-m64")
INPUTS = 24
ROUNDS = 10
QUICK_INPUTS = 2
BOOTSTRAP = 2000
EVALUATOR = "fft"


def draw_inputs(seed: int, inputs: int) -> list:
    """Per scene: (name, K, grid arguments, the ``inputs`` covariances)."""
    from estimate_digest import SCENE_SETS, SNR_CYCLE_DB

    from doalab.scenario import (
        ScenarioConfig,
        coefficient_gram,
        draw_covariance,
        draw_targets,
        trial_rng,
    )

    scenes = {s.name: s.scene for s in SCENE_SETS}
    out = []
    for name in SCENES:
        covariances = []
        for t in range(inputs):
            cfg = ScenarioConfig(
                **scenes[name], snr_db=SNR_CYCLE_DB[t % len(SNR_CYCLE_DB)], seed=seed
            )
            rng = trial_rng(cfg.seed, t)
            truth = draw_targets(cfg, rng)
            covariances.append(draw_covariance(truth, coefficient_gram(truth, cfg), cfg, rng))
        grid_args = (cfg.grid_points, cfg.antennas)
        out.append((name, cfg.targets, grid_args, covariances))
    return out


def serve() -> None:
    """Worker loop: scenes first, then (scene, input, method) calls until None.

    Replies to the scenes with this tree's package directory and method ids,
    and to each call with (seconds, estimate bytes or error string).
    """
    from doalab.fastgrid import make_grid
    from doalab.methods import METHOD_IDS, estimate_method

    recv, send = sys.stdin.buffer, sys.stdout.buffer
    scenes = [(K, make_grid(*grid_args), Rs) for _, K, grid_args, Rs in pickle.load(recv)]
    pickle.dump((str(Path(doalab.__file__).parent), METHOD_IDS), send)
    send.flush()
    while (call := pickle.load(recv)) is not None:
        scene, index, method = call
        K, grid, Rs = scenes[scene]
        try:
            t0 = perf_counter()
            est = estimate_method(method, Rs[index], K, grid, EVALUATOR)
            reply = (perf_counter() - t0, est.tobytes())
        except Exception as exc:  # an estimator error is a result to compare
            reply = (float("nan"), repr(exc))
        pickle.dump(reply, send)
        send.flush()


class Worker:
    """One worker process importing doalab from ``tree / "src"``."""

    def __init__(self, tree: Path, scenes: list):
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        self.package, self.methods = self.call(scenes)

    def call(self, message):
        pickle.dump(message, self.proc.stdin)
        self.proc.stdin.flush()
        return pickle.load(self.proc.stdout)

    def close(self) -> None:
        if self.proc.poll() is None:
            pickle.dump(None, self.proc.stdin)
            self.proc.stdin.close()
        self.proc.wait(timeout=30)


def bootstrap_ci(ratios: np.ndarray, rng: np.random.Generator) -> tuple:
    """95% percentile-bootstrap CI of the median of ``ratios``."""
    picks = rng.integers(0, ratios.size, (BOOTSTRAP, ratios.size))
    low, high = np.percentile(np.median(ratios[picks], axis=1), [2.5, 97.5])
    return float(low), float(high)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="directory holding the parent's src/")
    parser.add_argument("--seed", type=int, default=1, help="scene seed of the inputs")
    parser.add_argument("--quick", action="store_true", help=f"{QUICK_INPUTS} inputs, one round")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        serve()
        return 0
    if args.parent is None or not (args.parent / "src" / "doalab").is_dir():
        parser.error("--parent must name a directory holding src/doalab")
    inputs, rounds = (QUICK_INPUTS, 1) if args.quick else (INPUTS, ROUNDS)
    scenes = draw_inputs(args.seed, inputs)

    sides = ("parent", "change")
    trees = dict(zip(sides, (args.parent.resolve(), ROOT)))
    order = np.random.default_rng(args.seed)
    started = [sides[i] for i in order.permutation(len(sides))]
    workers = {}
    try:
        for side in started:
            workers[side] = Worker(trees[side], scenes)
        methods = workers["change"].methods
        if workers["parent"].methods != methods:
            parser.error("the two trees have different method ids")
        print(f"parent: {workers['parent'].package}")
        print(f"change: {workers['change'].package}")
        print(
            f"seed {args.seed}, {' then '.join(started)} started, "
            f"{inputs} inputs x {rounds} rounds per scene and method, "
            f"{EVALUATOR}, true K; ratio = change / parent per call"
        )
        for si in range(len(scenes)):  # warm-up: grid and transform caches
            for method in methods:
                for side in sides:
                    workers[side].call((si, 0, method))

        calls = {}  # (scene, method) -> list of {side: (seconds, result)}
        for _ in range(rounds):
            for si in range(len(scenes)):
                for index in range(inputs):
                    for method in methods:
                        pair = {}
                        for i in order.permutation(len(sides)):
                            pair[sides[i]] = workers[sides[i]].call((si, index, method))
                        calls.setdefault((si, method), []).append(pair)
    finally:
        for worker in workers.values():
            worker.close()

    boot = np.random.default_rng(0)
    print(
        f"\n{'scene':<13} {'method':<13} {'pairs':>5} {'ratio':>6} {'95% CI':>15}   "
        f"{'parent q1/med/q3 ms':>20}   {'change q1/med/q3 ms':>20} {'differ':>6}"
    )
    differ_total = 0
    for (si, method), pairs in calls.items():
        t = {side: np.array([p[side][0] for p in pairs]) for side in sides}
        differ = sum(p["parent"][1] != p["change"][1] for p in pairs)
        differ_total += differ
        ok = ~(np.isnan(t["parent"]) | np.isnan(t["change"]))
        if ok.any():  # some call on both trees ran without an error
            ratios = t["change"][ok] / t["parent"][ok]
            low, high = bootstrap_ci(ratios, boot)
            stats = f"{np.median(ratios):>6.3f} {f'[{low:.3f}, {high:.3f}]':>15}"
            q = {
                side: " ".join(f"{v:.3f}" for v in 1e3 * np.percentile(t[side][ok], [25, 50, 75]))
                for side in sides
            }
        else:
            stats = f"{'-':>6} {'-':>15}"
            q = dict.fromkeys(sides, "-")
        print(
            f"{scenes[si][0]:<13} {method:<13} {len(pairs):>5} {stats}   "
            f"{q['parent']:>20}   {q['change']:>20} {differ:>6}"
        )
    total = sum(len(p) for p in calls.values())
    print(f"\ncalls with differing estimates: {differ_total} of {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
