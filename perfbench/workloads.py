"""The benchmark's workloads: which scenes each one runs, and in what rounds.

A run repeats one round of trials until the requested time has passed, so
every run of a seed attempts the same trials and fails the same share of
them, however long it lasts.  A round's scenes derive from the ``--seed``
argument, except those of ``hybrid-direct`` (see below).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

SNR_CYCLE_DB = (0.0, 20.0, 40.0)
# Trial indices used for warm-up; timed trials count up from 0, so these
# never coincide with a timed scene.
WARMUP_INDEX_BASE = 1_000_000_000
WARMUP_TRIALS = 2
POOL_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    """One named workload.

    Attributes:
        name: Workload id passed as ``--workload``.
        scene: ScenarioConfig keyword arguments shared by every trial.
        snrs: SNR values cycled over a round's trials.
        criterion: Order criterion for all 10 methods.
        evaluator: Grid evaluator.
        round_trials: Trials per round (per SNR value for a pooled round).
        pooled: Run rounds through ``run_sweep`` on a process pool.
        scene_seed: Scene seed used in place of ``--seed``, when set.
    """

    name: str
    scene: dict
    snrs: tuple
    criterion: str = "true-k"
    evaluator: str = "fft"
    round_trials: int = 24
    pooled: bool = False
    scene_seed: int | None = None

    @property
    def antennas(self) -> int:
        return self.scene["antennas"]

    @property
    def targets(self) -> int:
        return self.scene["targets"]

    @property
    def grid_points(self) -> int:
        return self.scene.get("grid_points", 2048)


M16_SCENE = dict(targets=8, antennas=16, subcarriers=512, symbols=10)

WORKLOADS = {
    w.name: w
    for w in (
        # The paper's default scene: time spread over synthesis, projector
        # rebuilds and grid transforms.
        Workload("campaign-m16", M16_SCENE, SNR_CYCLE_DB),
        # Wide array, short observations: 64-column grid transforms, the
        # 64x64 EVD and make_grid dominate; synthesis is small.
        Workload(
            "wide-m64",
            dict(targets=8, antennas=64, subcarriers=128, symbols=4),
            SNR_CYCLE_DB,
        ),
        # Hybrid order (saturates at K=M-1 today) with the direct evaluator:
        # greedy updates at high k and direct products carry the cost.  The
        # rank guard raises LinAlgError on a few percent of these trials,
        # and which ones depends on the scene seed; with one fixed scene
        # seed every run attempts the same trials and fails the same share.
        Workload(
            "hybrid-direct",
            dict(targets=8, antennas=16, subcarriers=256, symbols=4),
            (20.0, 40.0),
            criterion="hybrid",
            evaluator="direct",
            scene_seed=1,
        ),
        # The campaign-m16 scene through run_sweep's spawn pool: one sweep
        # (3 SNR values x round_trials trials) per round.
        Workload(
            "campaign-pooled",
            M16_SCENE,
            SNR_CYCLE_DB,
            round_trials=48,
            pooled=True,
        ),
    )
}


def smoke(w: Workload) -> Workload:
    """A tiny version of a workload that exercises the same code paths."""
    scene = dict(targets=3, antennas=8, subcarriers=16, symbols=2, grid_points=64)
    return replace(w, scene=scene, round_trials=1 if w.pooled else len(w.snrs))


def scene_seed(w: Workload, seed: int) -> int:
    """The scene seed of every trial of a run with ``--seed seed``."""
    return seed if w.scene_seed is None else w.scene_seed


def trial_scene(w: Workload, seed: int, index: int) -> dict:
    """ScenarioConfig kwargs of trial ``index`` of a round."""
    return dict(w.scene, snr_db=w.snrs[index % len(w.snrs)], seed=scene_seed(w, seed))
