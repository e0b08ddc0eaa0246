"""Smoke runs of the scripts, as a user starts them from the repository root."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_find_order16_reproduces_one_main_class():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "find_order16.py"), "--samples", "4"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "4 sampled solutions fall in 1 main class(es)" in proc.stdout.splitlines()
