"""Every demo script, and README's Python, runs to completion against the
source tree."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))


def _run(args, tmp_path):
    # TMPDIR keeps the directories demos make with tempfile under tmp_path
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"), TMPDIR=str(tmp_path))
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("script", _DEMOS, ids=[p.name for p in _DEMOS])
def test_demo_exits_zero(script, tmp_path):
    result = _run([str(script)], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_python_runs(tmp_path):
    # the blocks build on each other, so they run in order as one script
    text = (_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)
    assert blocks
    result = _run(["-c", "\n".join(blocks)], tmp_path)
    assert result.returncode == 0, result.stderr
