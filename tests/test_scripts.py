"""The experiment scripts run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args", [
    ("planted_weekday_effect.py", ["--years", "1", "--per-week", "30"]),
    ("panel_recovery.py", ["--seeds", "1", "--days", "120",
                           "--countries", "5"]),
    ("map_quotients.py", ["--classes", "3", "--out-dir", "map"])])
def test_script_runs(tmp_path, script, args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
