"""Every script under demos/ and every example in README.md runs."""

import json
import re
import runpy
from pathlib import Path

import pytest

from stefanlab.cli import resolve_config

_ROOT = Path(__file__).resolve().parent.parent
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))
_README = (_ROOT / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", _README, re.DOTALL | re.MULTILINE)


def test_demos_found():
    assert len(_DEMOS) >= 4


@pytest.mark.parametrize("script", _DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_python_examples_run(capsys):
    # the blocks read as one session: later ones use earlier imports
    blocks = _blocks("python")
    assert len(blocks) >= 2
    namespace = {"__name__": "__readme__"}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out.strip()


def test_readme_config_resolves():
    blocks = _blocks("json")
    assert blocks
    for block in blocks:
        resolve_config(json.loads(block))
