"""One SHA-256 over every estimator outcome on a fixed set of method-trials.

    PYTHONPATH=src python3 tools/estimate_digest.py [--quick] [--out FILE]

Runs ``doalab.bench.run_trial`` with all 10 method ids on both evaluators
over seven seeded scene sets (campaign-m16 and wide-m64 on seeds 1 and 2,
hybrid-direct with the hybrid order, a K = 12 scene and a rank-aic run),
SNR cycled over the trials as the benchmark cycles it, and
prints one digest of every outcome: estimate bytes, k_hat, hit rate,
false-alarm rate, Youden J, RMSE, error string and the scene diagnostics.
Two source trees whose digests match produce bit-identical estimates and
metric columns on these 4,800 method-trials.  ``--out`` also writes one JSON
line per method-trial, so two runs can be diffed to find the first
difference; ``--quick`` runs one trial per scene set.  BLAS runs at one
thread (``doalab.pin_blas_threads()``, called before numpy loads).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
from dataclasses import dataclass

import doalab

doalab.pin_blas_threads()  # before numpy loads: one BLAS thread, as the benchmark runs

from doalab.bench import EVALUATORS, run_trial  # noqa: E402
from doalab.methods import METHOD_IDS  # noqa: E402
from doalab.scenario import ScenarioConfig  # noqa: E402

SNR_CYCLE_DB = (0.0, 20.0, 40.0)
M16_SCENE = dict(targets=8, antennas=16, subcarriers=512, symbols=10)


@dataclass(frozen=True)
class SceneSet:
    """``trials`` trials of one scene, SNR cycled over ``snrs``."""

    name: str
    scene: dict
    seed: int
    trials: int
    snrs: tuple = SNR_CYCLE_DB
    criterion: str = "true-k"


SCENE_SETS = (
    SceneSet("campaign-m16", M16_SCENE, 1, 48),
    SceneSet("campaign-m16", M16_SCENE, 2, 48),
    SceneSet("wide-m64", dict(targets=8, antennas=64, subcarriers=128, symbols=4), 1, 24),
    SceneSet("wide-m64", dict(targets=8, antennas=64, subcarriers=128, symbols=4), 2, 24),
    SceneSet(
        "hybrid-direct",
        dict(targets=8, antennas=16, subcarriers=256, symbols=4),
        1,
        24,
        snrs=(20.0, 40.0),
        criterion="hybrid",
    ),
    SceneSet("k12-m16", dict(M16_SCENE, targets=12), 3, 48),
    SceneSet("campaign-m16-aic", M16_SCENE, 4, 24, criterion="rank-aic"),
)


def outcome_records(quick: bool = False):
    """Yield one JSON-serializable record per method-trial, in a fixed order."""
    for s in SCENE_SETS:
        for trial in range(1 if quick else s.trials):
            cfg = ScenarioConfig(**s.scene, snr_db=s.snrs[trial % len(s.snrs)], seed=s.seed)
            for evaluator in EVALUATORS:
                result = run_trial(
                    cfg, trial, METHOD_IDS, (s.criterion,) * len(METHOD_IDS), evaluator
                )
                for method, o in result.outcomes.items():
                    yield {
                        "scene": s.name,
                        "seed": s.seed,
                        "trial": trial,
                        "evaluator": evaluator,
                        "method": method,
                        "estimates": o.estimates.astype("<f8").tobytes().hex(),
                        "k_hat": o.k_hat,
                        # repr round-trips a float exactly
                        "hit_rate": repr(o.hit_rate),
                        "fa_rate": repr(o.fa_rate),
                        "youden_j": repr(o.youden_j),
                        "rmse": repr(o.rmse),
                        "error": o.error,
                        "t_metric": repr(result.t_metric),
                        "s_metric": repr(result.s_metric),
                    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="one trial per scene set")
    parser.add_argument("--out", help="write one JSON line per method-trial here")
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    count = 0
    with open(args.out, "w") if args.out else contextlib.nullcontext() as out:
        for record in outcome_records(args.quick):
            line = json.dumps(record, sort_keys=True)
            digest.update(line.encode() + b"\n")
            if out:
                out.write(line + "\n")
            count += 1
    print(f"{digest.hexdigest()}  {count} method-trials")
    return 0


if __name__ == "__main__":
    sys.exit(main())
