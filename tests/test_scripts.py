"""Smoke tests of the scripts under scripts/, run as subprocesses."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)


def test_run_identity_checks_passes_every_case():
    proc = run_script("run_identity_checks.py", "--max-dim", 3)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    total = proc.stdout.splitlines()[-1].split()
    assert total[0] == "total" and int(total[1]) > 0 and total[3:5] == ["0", "failures"], total


def test_degenerating_family_residuals_are_zero(tmp_path):
    out = tmp_path / "primitive.json"
    proc = run_script("degenerating_family.py", "--out", out)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert ("fiber type over <100,101>: [<0>x<2,3>, <0,1>x<3>, <1>x<3,4>]"
            in proc.stdout.splitlines()), proc.stdout
    residuals = [line for line in proc.stdout.splitlines() if ": residual " in line]
    assert residuals
    assert all(": residual ZERO (" in line for line in residuals), residuals
    assert json.loads(out.read_text())
