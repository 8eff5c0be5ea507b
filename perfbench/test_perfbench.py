"""Tests of the benchmark itself, on a tiny workload.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layertrace  # noqa: E402
import run  # noqa: E402
from workloads import Workload, run_config  # noqa: E402

TINY = Workload("tiny", map_floor=0.0, datasets=2,
                data={"num_identities": 4, "samples_per_identity": 10},
                train={"epochs": 2, "batch_size": 8})

PER_LAYER = ([f"{name}.{kind}" for name in (layertrace.ROOT,) + layertrace.LAYERS
              for kind in ("calls", "self_s")]
             + [f"{layertrace.ROOT}.total_s", "cluster.clustered_frac",
                "losses.anchor_term_frac", "trace_overhead_s", *run.COUNT_UNITS])


@pytest.fixture(autouse=True)
def _short_phases(monkeypatch):
    monkeypatch.setattr(run, "SLICE_S", 0.05)


def _run_main(capsys, workload: Workload, trace: int) -> dict:
    code = run.main(["--workload", workload.name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], workloads={workload.name: workload})
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _assert_named_with_units(result: dict, names) -> None:
    assert set(result["metrics"]) == set(names)
    for name in names:
        entry = result["metrics"][name]
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], (int, float)) and entry["unit"]


def test_every_metric_is_printed_with_its_unit(capsys):
    untraced = _run_main(capsys, TINY, 0)
    assert untraced["correct"] and untraced["failed"] == 0
    assert untraced["attempted"] == run.UNTRACED_WORKERS
    _assert_named_with_units(untraced, run.END_TO_END_UNITS)
    assert untraced["metrics"]["ok_frac"]["value"] == 1.0

    traced = _run_main(capsys, TINY, 1)
    assert traced["correct"]
    _assert_named_with_units(traced, PER_LAYER)
    # A traced repetition runs each command once on each of the run's datasets.
    assert traced["metrics"]["training.train.calls"]["value"] == TINY.datasets
    assert traced["metrics"]["encoder.encode.calls"]["value"] > 0


def test_forced_failure_raises_failed_frac(capsys):
    impossible = Workload("impossible", map_floor=1.5,
                          data=TINY.data, train=TINY.train)
    result = _run_main(capsys, impossible, 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_frac"]["value"] == 0.0


@pytest.fixture
def tiny_config(tmp_path) -> Path:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(run_config(ROOT, TINY, 3, tmp_path)))
    return config


def _traced_pipeline(tracer: layertrace.Tracer, config: Path) -> None:
    from tokmem import cli
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        for command in ("gen-data", "train", "eval"):
            with tracer.span():
                assert cli.main([command, "--config", str(config)]) == 0


def test_self_times_sum_to_traced_wall_time(tiny_config):
    tracer = layertrace.Tracer()
    _traced_pipeline(tracer, tiny_config)
    times = tracer.layer_times()
    wall = times[layertrace.ROOT]["total_s"]
    assert times[layertrace.ROOT]["calls"] == 3
    assert all(entry["self_s"] >= -1e-9 for entry in times.values())
    # The root's self time is the residual no listed layer covers.
    assert sum(entry["self_s"] for entry in times.values()) == pytest.approx(wall, abs=1e-9)
    assert times["training.train"]["total_s"] <= wall


def test_wrappers_are_restored_and_missing_layers_report_zero(tiny_config):
    import tokmem.encoder as encoder_mod
    original = encoder_mod.encode
    tracer = layertrace.Tracer(layers=layertrace.LAYERS + ("encoder.no_such_layer",
                                                            "no_such_module.f"))
    tracer.install()
    assert encoder_mod.encode is not original
    with pytest.raises(RuntimeError, match="left installed"):
        layertrace.assert_clean()
    tracer.restore()
    assert encoder_mod.encode is original
    layertrace.assert_clean()

    _traced_pipeline(tracer, tiny_config)
    assert encoder_mod.encode is original
    times = tracer.layer_times()
    assert times["encoder.no_such_layer"]["calls"] == 0
    assert times["no_such_module.f"]["calls"] == 0
    assert times["encoder.encode"]["calls"] > 0
