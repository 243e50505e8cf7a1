"""Each script in scripts/ runs to completion at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("bias_vs_bounds.py", ["--n", "6", "--k", "20"]),
        ("failure_demo.py", ["--dims", "4", "8"]),
        ("scaling_sweep.py", ["--dims", "8", "16"]),
    ],
)
def test_script_runs(script, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
