"""Package surface: the lazy top-level exports, the import graph and the demo scripts."""

import os
import re
import runpy
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import doalab
from conftest import random_covariance

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def test_every_export_resolves():
    # Exports resolve lazily, so a stale entry would otherwise fail only
    # when a user first touches the name.
    for name in doalab.__all__:
        assert getattr(doalab, name) is not None, name


def test_top_level_greedy_surface_runs_an_estimate():
    # The exported engine reproduces OLS: a state on the covariance square
    # root, then K ratio-form steps, picks estimate_method's grid indices.
    M, K = 8, 3
    grid = doalab.make_grid(64, M)
    R = random_covariance(np.random.default_rng(5), M)
    state = doalab.initial_state(doalab.partition(R, K).sqrt_R, grid)
    for _ in range(K):
        doalab.greedy_step(state, "ratio")
    est = doalab.estimate_method("ols", R, K, grid)
    assert list(state.selected) == np.searchsorted(grid.angles, est).tolist()


def test_distribution_is_named_after_the_package():
    # So that ``pip show doalab`` and ``pip uninstall doalab`` find it.  A
    # regex, not tomllib, which Python 3.10 lacks.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)^\[", text, re.M | re.S).group(1)
    assert re.findall(r'^name\s*=\s*"([^"]*)"', project, re.M) == ["doalab"]


@pytest.mark.parametrize("demo", ["quick_look.py", "evaluator_race.py", "snr_sweep.py"])
def test_demo_runs(demo, capsys):
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    assert "ols-imusic" in capsys.readouterr().out


def test_readme_quick_start_runs(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Quick start\n\n```python\n(.*?)^```$", text, re.M | re.S).group(1)
    exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(line.startswith("[") for line in lines), lines


def test_pinning_blas_threads_does_not_load_numpy():
    # The pin only holds if it runs before numpy loads, so the test setup,
    # the command line and the tools call it right after ``import doalab``.
    # A fresh interpreter, because this one has loaded numpy long ago.
    script = textwrap.dedent(
        """
        import os, sys
        import doalab
        doalab.pin_blas_threads()
        print("numpy" in sys.modules, [os.environ[v] for v in doalab.BLAS_THREAD_VARS])
        """
    )
    src = str(Path(doalab.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k not in doalab.BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == f"False {['1'] * len(doalab.BLAS_THREAD_VARS)}", out.stdout


def test_scoring_trials_does_not_import_scipy_optimize():
    # metrics carries its own assignment solver; scipy.optimize would add
    # about 15 MB and 0.2 s to every process that scores trials.  A fresh
    # interpreter, because the test suite itself imports scipy.optimize.
    script = textwrap.dedent(
        """
        import sys
        import doalab.bench as bench
        from doalab.methods import METHOD_IDS
        from doalab.scenario import ScenarioConfig

        cfg = ScenarioConfig(targets=3, antennas=8, subcarriers=16, symbols=2,
                             snr_db=10.0, grid_points=256, seed=5)
        assert len(bench.run_trial(cfg, 0, METHOD_IDS).outcomes) == len(METHOD_IDS)
        spec = bench.SweepSpec(parameter="snr_db", values=(0.0, 10.0),
                               methods=("music-signal", "omp"), base=cfg, trials=3)
        assert len(bench.run_sweep(spec, workers=2)) == 4
        print(sorted(m for m in sys.modules if m.startswith("scipy.optimize")))
        """
    )
    src = str(Path(doalab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "[]", out.stdout
