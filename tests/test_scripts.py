"""The experiment scripts assert their own guarantees; run each one."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ("bounds_table.py", "cli_parity.py", "reproduce_constructions.py", "witness_sweep.py")


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
