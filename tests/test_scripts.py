"""Smoke runs of the experiment scripts on the committed reference config."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_reference_prints_trained_and_fresh_map():
    out = run_script("run_reference.py")
    assert "trained : mAP=" in out
    assert "fresh   : mAP=" in out
    assert "margin  : " in out


def test_run_ablation_one_seed_prints_every_variant():
    out = run_script("run_ablation.py", "--seeds", "42")
    assert out.startswith("seed 42: fresh=")
    assert "mean over 1 seeds:" in out
    for name in ("fresh init", "constraint", "constraint+proto", "all",
                 "all, no outlier negatives"):
        assert any(line.strip().startswith(name) and "mAP=" in line
                   for line in out.splitlines()), name
