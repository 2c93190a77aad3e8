"""Every demo script runs to completion against the source tree."""

import os
import pathlib
import subprocess
import sys

import pytest

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", _DEMOS, ids=[p.name for p in _DEMOS])
def test_demo_exits_zero(script, tmp_path):
    # TMPDIR keeps the directories demos make with tempfile under tmp_path
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"), TMPDIR=str(tmp_path))
    result = subprocess.run(
        [sys.executable, str(script)],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
