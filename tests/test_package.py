"""Package surface: the lazy top-level exports and the demo scripts."""

import runpy
from pathlib import Path

import pytest

import doalab

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_every_export_resolves():
    # Exports resolve lazily, so a stale entry would otherwise fail only
    # when a user first touches the name.
    for name in doalab.__all__:
        assert getattr(doalab, name) is not None, name


@pytest.mark.parametrize("demo", ["quick_look.py", "evaluator_race.py"])
def test_demo_runs(demo, capsys):
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    assert "ols-imusic" in capsys.readouterr().out
