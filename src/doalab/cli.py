"""Command line front end: ``doalab sweep`` and ``doalab demo``.

Exit codes: 0 on success, 1 on configuration errors, 2 on I/O errors.

BLAS thread-count environment variables are pinned to 1 (unless the user
already set them) before numpy loads, so each trial is internally
single-threaded and timing columns are stable; use DOALAB_THREADS to control
trial-level parallelism instead.  It counts the child processes that run
trials (by default, the CPUs this process may run on; 1 starts none), and
this process hands them chunks of trials and gathers the results.  They
start with the platform's default method: forked (Linux before Python
3.14), they inherit this process's modules and pinned BLAS; spawned (macOS,
Windows), they load numpy with the pinned variables.
"""

from __future__ import annotations

from doalab import pin_blas_threads

pin_blas_threads()

import argparse
import errno
import os
import sys
from dataclasses import replace


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as config errors."""

    def error(self, message):
        from doalab.config import ConfigError

        raise ConfigError(message)


def _build_parser() -> _Parser:
    from doalab.bench import EVALUATORS

    parser = _Parser(prog="doalab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a Monte Carlo sweep and write CSV")
    sweep.add_argument("--config", required=True, help="sweep configuration file")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--seed", type=int, default=None, help="override the base seed")
    sweep.add_argument(
        "--trials", type=int, default=None, help="override the trial count"
    )
    sweep.add_argument(
        "--serial",
        action="store_true",
        help="run every trial in this process (clean timing); otherwise "
        "DOALAB_THREADS child processes run them, started with the "
        "platform's default method (fork on Linux)",
    )
    sweep.add_argument(
        "--evaluator",
        default=None,
        help=f"override the config's grid evaluator ({' or '.join(EVALUATORS)}); "
        "SweepSpec.validate rejects any other before a trial runs",
    )

    sub.add_parser("demo", help="pretty-print one trial of every method")
    return parser


def _cmd_sweep(args) -> None:
    from doalab.bench import emit_csv, run_sweep
    from doalab.config import parse_config

    spec = parse_config(args.config)
    if args.seed is not None:
        spec = replace(spec, base=replace(spec.base, seed=args.seed))
    if args.trials is not None:
        spec = replace(spec, trials=args.trials)
    if args.evaluator is not None:
        spec = replace(spec, evaluator=args.evaluator)
    if not os.path.isdir(os.path.dirname(args.out) or "."):  # before the first trial
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
    if os.path.isdir(args.out):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
    table = run_sweep(spec, serial=args.serial)
    emit_csv(table, args.out)
    print(
        f"wrote {len(table)} rows ({spec.parameter} x {len(spec.methods)} methods, "
        f"{spec.trials} trials each) to {args.out}"
    )


def _cmd_demo() -> None:
    from doalab.bench import run_trial
    from doalab.methods import METHOD_IDS
    from doalab.scenario import ScenarioConfig

    cfg = ScenarioConfig(seed=2024)
    result = run_trial(cfg, 0, METHOD_IDS)
    truth = ", ".join(f"{u:+.4f}" for u in sorted(result.truth.doas))
    print(f"scenario: {cfg.targets} targets, {cfg.antennas} antennas, "
          f"{cfg.subcarriers} subcarriers x {cfg.symbols} symbols, "
          f"{cfg.snr_db:g} dB SNR, seed {cfg.seed}")
    print(f"true angles (sin domain): {truth}")
    print(f"scene diagnostics: steering diagonality {result.t_metric:.3f}, "
          f"signal diagonality {result.s_metric:.3f}")
    print()
    header = f"{'method':<14} {'J':>6} {'hit':>5} {'fa':>5} {'ms':>8}  estimates"
    print(header)
    print("-" * len(header))
    for method in METHOD_IDS:
        out = result.outcomes[method]
        if out.error:
            print(f"{method:<14} failed: {out.error}")
            continue
        est = ", ".join(f"{u:+.4f}" for u in sorted(out.estimates))
        print(
            f"{method:<14} {out.youden_j:>6.3f} {out.hit_rate:>5.2f} "
            f"{out.fa_rate:>5.2f} {1e3 * out.seconds:>8.2f}  {est}"
        )


def main(argv=None) -> int:
    from doalab.config import ConfigError

    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "sweep":
            _cmd_sweep(args)
        else:
            _cmd_demo()
        return 0
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
