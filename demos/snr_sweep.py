"""Desk-scale Monte Carlo sweep: detection quality versus SNR.

Runs the benchmark harness across a handful of SNR points and prints the
Youden-J table most comparisons in this package boil down to: the greedy
subspace-residual methods tracking (or beating) their plain greedy
counterparts at a fraction of the runtime.  The campaign (scene, SNRs,
methods, trial count) is the one ``snr_sweep.cfg`` beside this file
defines.  Run:

    python demos/snr_sweep.py

The equivalent CLI invocation is:

    doalab sweep --config demos/snr_sweep.cfg --out /tmp/snr_sweep.csv
"""

import os

from doalab.bench import run_sweep
from doalab.config import parse_config

CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "snr_sweep.cfg")


def main():
    spec = parse_config(CONFIG)
    table = run_sweep(spec, serial=True)

    j = {(row.sweep_value, row.method): row.youden_j for row in table}
    ms = {(row.sweep_value, row.method): row.mean_time_ms for row in table}
    methods, snrs = spec.methods, spec.values
    header = "snr_db " + "".join(f"{m:>12}" for m in methods)
    print(f"mean Youden J (hit rate minus false-alarm rate), {spec.trials} trials/point")
    print(header)
    print("-" * len(header))
    for snr in snrs:
        print(f"{snr:6.0f} " + "".join(f"{j[(snr, m)]:>12.3f}" for m in methods))
    print("\nmean estimate time, ms (trimmed mean over trials)")
    print(header)
    print("-" * len(header))
    for snr in snrs:
        print(f"{snr:6.0f} " + "".join(f"{ms[(snr, m)]:>12.2f}" for m in methods))
    for warning in table.warnings:
        print("warning:", warning)


if __name__ == "__main__":
    main()
