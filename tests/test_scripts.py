"""Runs of scripts/run_ablation.py, with RuntimeWarnings as errors as CI's
`quiet` runs the CLI: a successful run writes nothing to stderr."""

import json
import os
import re
import subprocess
import sys

import pytest

from conftest import REFERENCE_CONFIG, ROOT

SCRIPT = ROOT / "scripts" / "run_ablation.py"


def run_script(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True,
                          timeout=300, env={**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"})


def seed_row(*args):
    """The first printed row's mAPs, in VARIANTS order, as printed."""
    proc = run_script(*args)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return proc.stdout, re.findall(r"=(\d\.\d{4})", proc.stdout.splitlines()[0])


def test_run_ablation_one_seed_prints_every_variant(ablation_table):
    out, row = seed_row("--seeds", "42")
    assert out.startswith("seed 42: fresh=")
    assert "mean over 1 seeds:" in out
    for name in ("fresh init", "constraint", "constraint+proto", "all",
                 "all, no outlier negatives"):
        assert any(line.strip().startswith(name) and "mAP=" in line
                   for line in out.splitlines()), name
    # the row criteria 8 and 9 judge for seed 42
    assert row == [f"{run.mean_ap:.4f}" for run in ablation_table[42].values()]


def test_run_ablation_on_a_0_epoch_config(tmp_path):
    # every variant is then the fresh encoder; the log has no epoch to read
    config = json.loads(REFERENCE_CONFIG.read_text())
    config["train"]["epochs"] = 0
    (tmp_path / "config.json").write_text(json.dumps(config))
    _, row = seed_row("--config", str(tmp_path / "config.json"), "--seeds", "42")
    assert len(row) == 5 and len(set(row)) == 1


@pytest.mark.parametrize("args, message", [
    (["--config", "missing.json"], "config file not found: missing.json"),
    (["--config", str(ROOT / "pyproject.toml")], "config is not valid JSON"),
    (["--config", str(ROOT / "configs")], "Is a directory"),
    (["--seeds", "-1"], "`--seeds` must be in [0, 2**64), got -1"),
    (["--seeds", "4.2"], "argument --seeds: invalid int value: '4.2'"),
    (["--seeds", "42", "43", "42"], "`--seeds` names seed 42 twice"),
], ids=["missing_config", "invalid_config", "config_is_a_directory", "seed_out_of_range",
        "seed_not_an_integer", "repeated_seed"])
def test_run_ablation_bad_input_exits_2_with_one_line(args, message):
    proc = run_script(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert message in proc.stderr
