"""Smoke runs of the scripts, as a user starts them from the repository root."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


def test_find_order16_reproduces_one_main_class():
    proc = run_script("find_order16.py", "--samples", "4")
    assert proc.returncode == 0, proc.stderr
    assert "4 sampled solutions fall in 1 main class(es)" in proc.stdout.splitlines()


def test_mols_linear_finds_exactly_one_free_class_at_p7():
    proc = run_script("mols_linear.py", "--p", "7")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "GF(7): 15 slope pairs, 2 classes"
    assert sum("K4,4-free: True" in line for line in lines) == 1
    assert not any("NOT class-invariant" in line for line in lines)


@pytest.mark.parametrize("p", ["9", "1"])
def test_mols_linear_rejects_a_p_that_is_not_prime(p):
    proc = run_script("mols_linear.py", "--p", p)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: --p must be a prime, got {p}\n"


@pytest.mark.parametrize("patch, message", [
    # every pair reported as not orthogonal
    ({"is_orthogonal": lambda a0, a1: False}, "do not give an orthogonal pair"),
    # a K4,4 only in the pairs with slope 2: the class of (1, 2) is split
    ({"find_induced_ktt": lambda pair, t: 2 in (pair[0].rows[0][1], pair[1].rows[0][1])},
     "NOT class-invariant"),
])
def test_mols_linear_exits_1_when_a_check_fails(monkeypatch, capsys, patch, message):
    main = runpy.run_path(str(ROOT / "scripts" / "mols_linear.py"))["main"]
    for name, fake in patch.items():
        monkeypatch.setitem(main.__globals__, name, fake)
    monkeypatch.setattr(sys, "argv", ["mols_linear.py", "--p", "7"])
    assert main() == 1
    assert message in capsys.readouterr().out
