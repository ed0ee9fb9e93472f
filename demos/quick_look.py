"""One synthetic trial, end to end, with the intermediate objects on show.

Walks the full pipeline by hand — scene synthesis, sample covariance, the
one-time eigendecomposition, a classic pseudospectrum, and a greedy
subspace-residual estimate — printing each stage so you can see what the
benchmark harness automates.  Run:

    python demos/quick_look.py
"""

import numpy as np

from doalab.fastgrid import make_grid
from doalab.linalg import hermitian_evd
from doalab.methods import estimate_method, pseudospectrum
from doalab.metrics import associate, detection_metrics
from doalab.scenario import ScenarioConfig, draw_targets, synthesize_observation, trial_rng
from doalab.subspace import partition, sample_covariance


def ascii_spectrum(values, grid, truth, width=72, rows=12):
    """Tiny log-scale spark plot of a pseudospectrum with truth markers."""
    v = np.log10(np.maximum(values, values.max() * 1e-6))
    v = (v - v.min()) / (v.max() - v.min())
    cols = np.array_split(np.arange(grid.N), width)
    heights = np.array([v[c].max() for c in cols])
    marks = set()
    for u in truth.doas:
        marks.add(int((u + 1.0) / 2.0 * width) % width)
    lines = []
    for r in range(rows, 0, -1):
        lines.append("".join("#" if h * rows >= r else " " for h in heights))
    lines.append("".join("^" if i in marks else "-" for i in range(width)))
    return "\n".join(lines)


def main():
    cfg = ScenarioConfig(targets=5, antennas=16, subcarriers=128, symbols=4,
                         snr_db=15.0, max_range_m=25.0, seed=11)
    rng = trial_rng(cfg.seed, 0)
    truth = draw_targets(cfg, rng)
    obs = synthesize_observation(truth, cfg, rng)
    print(f"scene: {cfg.targets} targets, {cfg.antennas}-element array, "
          f"{cfg.snapshots} snapshots at {cfg.snr_db:g} dB")
    print("true angles:", ", ".join(f"{u:+.4f}" for u in np.sort(truth.doas)))

    R = sample_covariance(obs.Y)
    lam, _ = hermitian_evd(R)
    print(f"\neigenvalue ladder (top {cfg.targets + 2}): "
          + ", ".join(f"{x:.3g}" for x in lam[: cfg.targets + 2]))
    print(f"signal-to-tail ratio lambda_{cfg.targets}/lambda_{cfg.targets + 1} "
          f"= {lam[cfg.targets - 1] / lam[cfg.targets]:.1f}")

    grid = make_grid(cfg.grid_points, cfg.antennas)

    spectrum = pseudospectrum(partition(R, cfg.targets), grid, "music-noise").values
    print("\nnoise-form pseudospectrum (truth marked with ^):")
    print(ascii_spectrum(spectrum, grid, truth))

    estimates = {
        method: estimate_method(method, R, cfg.targets, grid)
        for method in ("music-noise", "omp", "ols", "omp-imusic", "ols-imusic")
    }
    print("\nestimates (sorted, sin domain; J = hits minus false alarms, 1 is perfect):")
    for name, est in estimates.items():
        det = detection_metrics(associate(truth.doas, est), cfg.antennas)
        angles = ", ".join(f"{u:+.4f}" for u in np.sort(est))
        print(f"  {name:<12} J={det.youden_j:+.2f}  {angles}")
    print("\nOne trial proves nothing — run demos/snr_sweep.py for the Monte Carlo view.")


if __name__ == "__main__":
    main()
