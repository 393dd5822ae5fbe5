"""Every script under demos/ runs to completion and prints its report."""

import runpy
from pathlib import Path

import pytest

_DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(_DEMOS) >= 4


@pytest.mark.parametrize("script", _DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip()
