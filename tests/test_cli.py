import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tokmem.gradcheck as gradcheck_mod
from tokmem.cli import _build_parser, main
from tokmem.config import load_run_config
from tokmem.encoder import init_params, load_checkpoint
from tokmem.evaluate import BLOCK


def write_config(tmp_path, **overrides):
    doc = {
        "format_version": 1,
        "data": {
            "num_identities": 4,
            "samples_per_identity": 6,
            "patches_per_image": 6,
            "patch_input_dim": 5,
            "identity_spread": 0.1,
            "noise_patch_prob": 0.1,
            "seed": 3,
        },
        "train": {"epochs": 3, "batch_size": 4, "feature_dim": 8, "part_tokens": 2,
                  "dbscan_eps": 0.3, "dbscan_min_pts": 2, "seed": 11},
        "eval": {"query_per_identity": 2, "k_max": 5, "seed": 7},
        "paths": {
            "dataset": str(tmp_path / "run" / "data"),
            "checkpoint": str(tmp_path / "run" / "ckpt"),
            "log": str(tmp_path / "run" / "log.jsonl"),
            "metrics": str(tmp_path / "run" / "metrics.json"),
        },
    }
    for section, values in overrides.items():
        doc[section].update(values)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def made_by(cfg):
    """The config sections a checkpoint trained under config file ``cfg`` records."""
    run = load_run_config(cfg)
    return {"data": run.data, "train": run.train}


def test_gen_data_writes_files_and_prints_counts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["gen-data", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "24 samples" in out and "4 identities" in out
    assert (tmp_path / "run" / "data.json").exists()
    assert (tmp_path / "run" / "data.f32").exists()


def test_gen_data_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["gen-data", "--config", str(cfg)]) == 0
    a_json = (tmp_path / "run" / "data.json").read_bytes()
    a_blob = (tmp_path / "run" / "data.f32").read_bytes()
    assert main(["gen-data", "--config", str(cfg)]) == 0
    assert (tmp_path / "run" / "data.json").read_bytes() == a_json
    assert (tmp_path / "run" / "data.f32").read_bytes() == a_blob


@pytest.mark.parametrize("argv, message", [
    (["gen-data", "--config", "config.json", "--out", "alt"],
     "unrecognized arguments: --out alt"),
    (["eval", "--config", "config.json", "--checkpoint", "alt"],
     "unrecognized arguments: --checkpoint alt"),
    (["train"], "the following arguments are required: --config"),
    (["gradcheck", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
], ids=["gen-data_out", "eval_checkpoint", "train_without_config", "gradcheck_seed_abc"])
def test_usage_error_is_one_line_and_writes_nothing(tmp_path, capsys, monkeypatch, argv,
                                                    message):
    """A flag no command takes, a missing ``--config`` or a mistyped value
    prints ``error: <message>`` alone and exits 2 before any command runs:
    ``eval`` writes no metrics for a checkpoint the config does not name."""
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    monkeypatch.chdir(tmp_path)
    (tmp_path / "alt.json").write_bytes((tmp_path / "run" / "ckpt.json").read_bytes())
    (tmp_path / "alt.f32").write_bytes((tmp_path / "run" / "ckpt.f32").read_bytes())
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert {path: path.read_bytes() for path in tmp_path.rglob("*")
            if path.is_file()} == before


def test_missing_config_field_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    doc = json.loads(cfg.read_text())
    del doc["data"]["seed"]
    cfg.write_text(json.dumps(doc))
    assert main(["gen-data", "--config", str(cfg)]) == 2
    assert "data.seed" in capsys.readouterr().err


@pytest.mark.parametrize("section, field, value", [
    ("data", "num_identities", 1),
    ("data", "samples_per_identity", 0),
    ("data", "patches_per_image", 3),
    ("data", "patch_input_dim", 0),
    ("data", "identity_spread", -0.5),
    ("data", "noise_patch_prob", 1.0),
    ("data", "seed", -1),
    ("train", "epochs", -1),
    ("train", "batch_size", 0),
    ("train", "lr", 0.0),
    ("train", "lr_decay_every", 0),
    ("train", "lr_decay_factor", 0.0),
    ("train", "temperature", 0.0),
    ("train", "momentum", 1.5),
    ("train", "neg_token_rate", 0.0),
    ("train", "num_negatives", 0),
    ("train", "weight_constraint", -1.0),
    ("train", "weight_prototype", -1.0),
    ("train", "weight_anchor", -1.0),
    ("train", "dbscan_eps", 0.0),
    ("train", "dbscan_min_pts", 0),
    ("train", "seed", 2**64),
    ("train", "feature_dim", 1),
    ("train", "part_tokens", 0),
    # fit to the dataset: 4 x 6 = 24 samples of 6 patches
    ("train", "batch_size", 25),
    ("train", "part_tokens", 7),
    ("train", "neg_token_rate", 1.0),
    # samples_per_identity 6 and 2 queries: a gallery of 4 x 4 = 16
    ("eval", "query_per_identity", 6),
    ("eval", "k_max", 17),
    ("eval", "seed", -1),
])
def test_out_of_range_setting_exits_2_with_one_line(tmp_path, capsys, section, field, value):
    cfg = write_config(tmp_path, **{section: {field: value}})
    assert main(["gen-data", "--config", str(cfg)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert f"`{section}.{field}` must be " in lines[0] and f"got {value}" in lines[0]


def test_train_writes_checkpoint_and_log(tmp_path, capsys):
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    assert main(["train", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "checkpoint written" in out
    lines = (tmp_path / "run" / "log.jsonl").read_text().strip().splitlines()
    assert len(lines) == 3
    records = [json.loads(line) for line in lines]
    assert [r["epoch"] for r in records] == [0, 1, 2]
    load_checkpoint(tmp_path / "run" / "ckpt", made_by(cfg))


def test_train_zero_epochs_checkpoint_is_initial(tmp_path):
    cfg = write_config(tmp_path, train={"epochs": 0})
    main(["gen-data", "--config", str(cfg)])
    assert main(["train", "--config", str(cfg)]) == 0
    params = load_checkpoint(tmp_path / "run" / "ckpt", made_by(cfg))
    fresh = init_params(8, 5, 2, seed=11)
    np.testing.assert_array_equal(params.vec, fresh.vec.astype(np.float32))
    assert (tmp_path / "run" / "log.jsonl").read_text() == ""


def test_train_missing_dataset_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg)]) == 2
    assert "missing" in capsys.readouterr().err


@pytest.mark.parametrize("command, loader", [("gen-data", "generate"),
                                             ("train", "load_dataset")])
@pytest.mark.parametrize("message", ["Unable to allocate 119. GiB for an array", ""])
def test_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch, command,
                                             loader, message):
    """A dataset too large for the machine, as numpy reports it, is an
    input error, not a traceback; the loader is replaced, so nothing large
    is allocated."""
    import tokmem.synth as synth_mod

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    cfg = write_config(tmp_path)
    monkeypatch.setattr(synth_mod, loader, exhausted)
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and message in err
    assert err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("eval_override, field", [
    ({"query_per_identity": 6}, "eval.query_per_identity"),
    ({"k_max": 10000}, "eval.k_max"),
    ({"seed": -1}, "eval.seed"),
])
def test_train_rejects_eval_limits_before_training(tmp_path, capsys, eval_override,
                                                   field):
    main(["gen-data", "--config", str(write_config(tmp_path))])
    capsys.readouterr()
    cfg = write_config(tmp_path, eval=eval_override)
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and field in err
    assert not list((tmp_path / "run").glob("ckpt*"))
    assert not (tmp_path / "run" / "log.jsonl").exists()
    assert main(["gen-data", "--config", str(cfg)]) == 2


def test_train_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    assert main(["train", "--config", str(cfg)]) == 0
    first_ckpt = (tmp_path / "run" / "ckpt.f32").read_bytes()
    first_manifest = (tmp_path / "run" / "ckpt.json").read_bytes()
    first_log = (tmp_path / "run" / "log.jsonl").read_bytes()
    assert main(["train", "--config", str(cfg)]) == 0
    assert (tmp_path / "run" / "ckpt.f32").read_bytes() == first_ckpt
    assert (tmp_path / "run" / "ckpt.json").read_bytes() == first_manifest
    assert (tmp_path / "run" / "log.jsonl").read_bytes() == first_log


def test_train_and_eval_reject_nonfinite_patch_exit_2(tmp_path, capsys):
    """NaN, inf and -inf, in the first sample's patches and in the last's."""
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    blob_path = tmp_path / "run" / "data.f32"
    good = np.frombuffer(blob_path.read_bytes(), dtype="<f4")
    for value in (np.nan, np.inf, -np.inf):
        for index in (10, good.size - 3):
            blob = good.copy()
            blob[index] = value
            blob_path.write_bytes(blob.tobytes())
            capsys.readouterr()
            for command in ("train", "eval"):
                assert main([command, "--config", str(cfg)]) == 2
                err = capsys.readouterr().err
                assert "non-finite" in err
                assert len(err.strip().splitlines()) == 1


def test_blob_with_both_infinities_exits_2_without_a_warning(tmp_path, capsys):
    """+inf and -inf in one blob: the check says non-finite, and no numpy
    invalid-value warning (an error in this suite) comes before it."""
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    blob_path = tmp_path / "run" / "data.f32"
    blob = np.frombuffer(blob_path.read_bytes(), dtype="<f4").copy()
    blob[[3, -3]] = np.inf, -np.inf
    blob_path.write_bytes(blob.tobytes())
    capsys.readouterr()
    for command in ("train", "eval"):
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: dataset blob has non-finite patch values\n"


def run_cli(command, cfg, *args):
    """``tokmem <command> --config <cfg>`` in a separate process, so that
    its stderr is what a user sees, numpy's warnings included."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run([sys.executable, "-m", "tokmem.cli", command, "--config", str(cfg),
                           *args], capture_output=True, text=True, env=env)


def test_blank_image_exits_2_naming_the_sample(tmp_path):
    """A sample whose patches are all zero has no feature direction: train
    names it in one stderr line, with no warning before it, and writes no
    checkpoint; a separate process, so that stderr is what a user sees."""
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    blob_path = tmp_path / "run" / "data.f32"
    blob = np.frombuffer(blob_path.read_bytes(), dtype="<f4").reshape(24, -1).copy()
    blob[5] = 0.0
    blob_path.write_bytes(blob.tobytes())
    proc = run_cli("train", cfg)
    assert proc.returncode == 2
    assert proc.stderr == "error: sample 5 is blank: its patch and stripe means are all zero\n"
    assert not list((tmp_path / "run").glob("ckpt*"))


def test_eval_of_a_blank_sample_exits_2_and_writes_no_metrics(tmp_path):
    """eval refuses a blank sample with train's line, before any warning,
    and writes neither the metrics nor the per-query CSV."""
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    blob_path = tmp_path / "run" / "data.f32"
    blob = np.frombuffer(blob_path.read_bytes(), dtype="<f4").reshape(24, -1).copy()
    blob[5] = 0.0
    blob_path.write_bytes(blob.tobytes())
    proc = run_cli("eval", cfg, "--per-query-csv", str(tmp_path / "run" / "per_query.csv"))
    assert proc.returncode == 2
    assert proc.stderr == "error: sample 5 is blank: its patch and stripe means are all zero\n"
    assert proc.stdout == ""
    assert not list((tmp_path / "run").glob("metrics*"))
    assert not list((tmp_path / "run").glob("per_query*"))


def test_all_zero_patch_exits_2_naming_sample_and_patch(tmp_path):
    """One all-zero patch in a sample that is not blank has a token with no
    direction: train names the sample and the patch in one stderr line,
    with no warning before it, and keeps the previous checkpoint; -0.0
    counts as zero too. eval reads no token: it scores such a dataset."""
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    run = tmp_path / "run"
    checkpoint = [(run / name).read_bytes() for name in ("ckpt.json", "ckpt.f32", "log.jsonl")]
    blob = np.frombuffer((run / "data.f32").read_bytes(), dtype="<f4").reshape(24, 6, 5).copy()
    blob[5, 3] = 0.0
    blob[7, 1] = -0.0
    (run / "data.f32").write_bytes(blob.tobytes())
    proc = run_cli("train", cfg)
    assert (proc.returncode, proc.stderr) == (2, "error: sample 5 patch 3 is all zero: its "
                                                 "token has no direction\n")
    blob[5, 3] = blob[4, 3]
    (run / "data.f32").write_bytes(blob.tobytes())
    proc = run_cli("train", cfg)
    assert (proc.returncode, proc.stderr) == (2, "error: sample 7 patch 1 is all zero: its "
                                                 "token has no direction\n")
    assert [(run / name).read_bytes() for name in ("ckpt.json", "ckpt.f32",
                                                   "log.jsonl")] == checkpoint
    proc = run_cli("eval", cfg)
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("spread", [1e39, 1e308])
def test_spread_beyond_float32_exits_2_before_any_write(tmp_path, capsys, spread):
    """Patches past the float32 range would be stored as infinities that no
    command loads; gen-data refuses them in one line, without numpy's
    overflow warnings (errors in this suite)."""
    cfg = write_config(tmp_path, data={"identity_spread": spread})
    assert main(["gen-data", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: identity_spread {spread} puts patch values beyond the float32 "
                   "range (about ±3.4e38)\n")
    assert not (tmp_path / "run").exists()


def test_manifest_with_the_old_num_samples_field_loads_alike(tmp_path):
    """Manifests written before the size was left to the spec also store
    ``num_samples``; train and eval read them to the same bytes."""
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    run = tmp_path / "run"
    outputs = ("ckpt.json", "ckpt.f32", "log.jsonl", "metrics.json", "per_query.csv")
    manifest = json.loads((run / "data.json").read_text())
    assert "num_samples" not in manifest
    results = []
    for old_field in ({}, {"num_samples": 24}):
        (run / "data.json").write_text(json.dumps({**manifest, **old_field}))
        assert main(["train", "--config", str(cfg)]) == 0
        assert main(["eval", "--config", str(cfg), "--per-query-csv",
                     str(run / "per_query.csv")]) == 0
        results.append({name: (run / name).read_bytes() for name in outputs})
    assert results[0] == results[1]


def test_patches_near_the_float32_limit_load_and_train(tmp_path):
    """Every patch value 3e38: finite, though a float32 sum of them is not."""
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    blob_path = tmp_path / "run" / "data.f32"
    size = len(blob_path.read_bytes()) // 4
    blob_path.write_bytes(np.full(size, 3e38, dtype="<f4").tobytes())
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["eval", "--config", str(cfg)]) == 0


@pytest.mark.parametrize("field,value,message", [("seed", None, "seed"),
                                                 ("num_identities", "4", "str"),
                                                 ("num_identities", 4.0, "num_identities"),
                                                 ("seed", True, "seed"),
                                                 (None, [], "not a JSON object"),
                                                 ("identity_spread", True, "identity_spread"),
                                                 ("noise_patch_prob", False,
                                                  "noise_patch_prob"),
                                                 ("identity_spread", float("inf"),
                                                  "identity_spread"),
                                                 ("num_identities", 1,
                                                  "manifest field 'num_identities'")])
def test_dataset_manifest_bad_field_exits_2(tmp_path, capsys, field, value, message):
    """``value`` None deletes the field; ``field`` None replaces the manifest.
    Both commands that read the dataset reject it."""
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    manifest_path = tmp_path / "run" / "data.json"
    manifest = json.loads(manifest_path.read_text())
    if field is None:
        manifest = value
    elif value is None:
        del manifest[field]
    else:
        manifest[field] = value
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    for command in ("train", "eval"):
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert len(err.strip().splitlines()) == 1


def run_files(run):
    return {path.name: path.read_bytes() for path in run.iterdir()}


@pytest.mark.parametrize("command, field, target, other", [
    ("train", "log", "data.json", "paths.dataset"),
    ("eval", "metrics", "ckpt.json", "paths.checkpoint"),
    ("train", "log", "ckpt.json", "paths.checkpoint"),
    ("gen-data", "dataset", "../config", "--config"),
    ("train", "log", "../config.json", "--config"),
    ("eval", "metrics", "../config.json", "--config"),
])
def test_colliding_artifact_paths_exit_2_and_keep_files(tmp_path, capsys, command, field,
                                                        target, other):
    """A config whose artifact paths name one file twice, or name the config
    file itself, is refused before any write, so no artifact replaces
    another or the config."""
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    run = tmp_path / "run"
    before = run_files(run)
    capsys.readouterr()
    config = write_config(tmp_path, paths={field: str(run / target)}).read_bytes()
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"`{other}` and `paths.{field}`" in err
    assert len(err.strip().splitlines()) == 1
    assert run_files(run) == before
    assert cfg.read_bytes() == config
    write_config(tmp_path)
    assert main(["eval", "--config", str(cfg)]) == 0


@pytest.mark.parametrize("flag, target, names", [
    ("--per-query-csv", "ckpt.json", "`paths.checkpoint` and `--per-query-csv`"),
    ("--per-query-csv", "data.f32", "`paths.dataset` and `--per-query-csv`"),
    ("--per-query-csv", "metrics.json", "`paths.metrics` and `--per-query-csv`"),
])
def test_eval_override_colliding_with_an_artifact_exits_2(tmp_path, capsys, flag, target,
                                                          names):
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    run = tmp_path / "run"
    before = run_files(run)
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg), flag, str(run / target)]) == 2
    err = capsys.readouterr().err
    assert names in err
    assert len(err.strip().splitlines()) == 1
    assert run_files(run) == before


@pytest.mark.parametrize("argv, names", [
    (["eval", "--per-query-csv", "config.json"], "`--config` and `--per-query-csv`"),
], ids=["eval_per_query_csv"])
def test_flag_naming_the_config_exits_2_and_keeps_it(tmp_path, capsys, argv, names):
    """An output flag that names the config file is refused before any
    write."""
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    run = tmp_path / "run"
    before, config = run_files(run), cfg.read_bytes()
    capsys.readouterr()
    command, flag, name = argv
    assert main([command, "--config", str(cfg), flag, str(tmp_path / name)]) == 2
    err = capsys.readouterr().err
    assert names in err
    assert len(err.strip().splitlines()) == 1
    assert run_files(run) == before
    assert cfg.read_bytes() == config


@pytest.mark.parametrize("train", [
    {"weight_constraint": 0.0, "weight_prototype": 0.0, "weight_anchor": 0.0,
     "lr_decay_factor": 1e300, "lr_decay_every": 1, "epochs": 3},
    {"lr": 1e10, "lr_decay_factor": 1e300, "lr_decay_every": 1, "epochs": 2,
     "dbscan_eps": 1e-9},
], ids=["pow_overflows", "product_overflows"])
def test_overflowing_lr_schedule_exits_2_with_one_line(tmp_path, capsys, train):
    """An lr schedule whose last epoch's lr is not finite is refused at
    load: training would crash on the power or log ``"lr": Infinity``."""
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    capsys.readouterr()
    write_config(tmp_path, train=train)
    assert main(["train", "--config", str(cfg)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: `train.lr_decay_factor` must be small enough")
    assert not (tmp_path / "run" / "log.jsonl").exists()


@pytest.mark.parametrize("field, value", [("seed", 4), ("identity_spread", 0.2),
                                          ("patch_input_dim", 6)])
def test_stale_dataset_exits_2_naming_field(tmp_path, capsys, field, value):
    """A dataset file generated from another ``data`` section is refused."""
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    checkpoint = (tmp_path / "run" / "ckpt.f32").read_bytes()
    stale = write_config(tmp_path, data={field: value})
    capsys.readouterr()
    for command in ("train", "eval"):
        assert main([command, "--config", str(stale)]) == 2
        err = capsys.readouterr().err
        assert f"`data.{field}`" in err and "gen-data" in err
        assert len(err.strip().splitlines()) == 1
    assert (tmp_path / "run" / "ckpt.f32").read_bytes() == checkpoint
    assert not (tmp_path / "run" / "metrics.json").exists()


@pytest.mark.parametrize("directory", ["config.json", "run/data.json", "run/log.jsonl"])
def test_directory_in_place_of_a_file_exits_2(tmp_path, capsys, directory):
    """An OSError reading the config or dataset, or writing the log (after
    the whole run), exits 2 with one line."""
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    config = tmp_path / "other.json"
    config.write_bytes(cfg.read_bytes())
    (tmp_path / directory).unlink(missing_ok=True)
    (tmp_path / directory).mkdir()
    config = tmp_path / directory if directory == "config.json" else config
    capsys.readouterr()
    assert main(["train", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and directory.split("/")[-1] in err
    assert len(err.strip().splitlines()) == 1


def test_log_directory_keeps_previous_checkpoint(tmp_path, capsys):
    """A log path that is a directory fails the train before any rename,
    so the previous checkpoint stays."""
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    assert main(["train", "--config", str(cfg)]) == 0
    checkpoint = [(tmp_path / "run" / name).read_bytes() for name in ("ckpt.json", "ckpt.f32")]
    (tmp_path / "logdir").mkdir()
    cfg = write_config(tmp_path, train={"epochs": 1},
                       paths={"log": str(tmp_path / "logdir")})
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "logdir" in err
    assert len(err.strip().splitlines()) == 1
    assert [(tmp_path / "run" / name).read_bytes()
            for name in ("ckpt.json", "ckpt.f32")] == checkpoint
    assert not list((tmp_path / "run").glob("*.tmp"))


def test_failed_log_rename_keeps_previous_log(tmp_path, capsys, monkeypatch):
    """A failed rename of the log leaves the previous log; the checkpoint,
    renamed before it, is already replaced."""
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    log_path = tmp_path / "run" / "log.jsonl"
    previous = log_path.read_bytes()
    real_replace = os.replace

    def failing_replace(src, dst):
        if dst == log_path:
            raise OSError("rename failed")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    cfg = write_config(tmp_path, train={"epochs": 1})
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: rename failed\n"
    monkeypatch.undo()
    assert log_path.read_bytes() == previous
    assert not list((tmp_path / "run").glob("*.tmp"))


def test_dataset_with_a_trailing_label_column_exits_2(tmp_path, capsys):
    """A dataset blob that also holds N int32 identity labels after the
    patches, with a manifest that declares its length, is refused by both
    commands that read it: the blob holds the patches only."""
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    manifest_path, blob_path = tmp_path / "run" / "data.json", tmp_path / "run" / "data.f32"
    blob = blob_path.read_bytes() + (np.arange(24, dtype="<i4") // 6).tobytes()
    blob_path.write_bytes(blob)
    manifest_path.write_text(json.dumps({**json.loads(manifest_path.read_text()),
                                         "blob_bytes": len(blob)}))
    capsys.readouterr()
    for command in ("train", "eval"):
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"dataset blob has {len(blob)} bytes, expected {4 * 24 * 6 * 5}" in err
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("value", [None, [8], 8.7, 8.0])
def test_checkpoint_manifest_bad_dim_exits_2(tmp_path, capsys, value):
    """A mistyped dim in the checkpoint's record is a field that differs, 8.0
    from 8 included."""
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    manifest_path = tmp_path / "run" / "ckpt.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["train"]["feature_dim"] = value
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: checkpoint {tmp_path / 'run' / 'ckpt'} has `train.feature_dim` "
                     f"{json.dumps(value)}, config has 8; run train again"]


@pytest.mark.parametrize("dims,field", [
    ({"feature_dim": -8, "part_tokens": -3}, "feature_dim"),
    ({"patch_input_dim": 0}, "patch_input_dim"),
    ({"part_tokens": 0}, "part_tokens"),
])
def test_checkpoint_manifest_dim_out_of_range_exits_2(tmp_path, capsys, dims, field):
    """Dims out of range in the record, the blob and ``blob_bytes`` cut to
    the length they ask for: refused by the record alone, naming the first."""
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    manifest_path, blob_path = tmp_path / "run" / "ckpt.json", tmp_path / "run" / "ckpt.f32"
    manifest = json.loads(manifest_path.read_text())
    section = {"feature_dim": "train", "patch_input_dim": "data", "part_tokens": "train"}
    for name, value in dims.items():
        manifest[section[name]][name] = value
    d, z = manifest["train"]["feature_dim"], manifest["train"]["part_tokens"]
    size = 4 * (2 + z) * d * manifest["data"]["patch_input_dim"]
    blob_path.write_bytes(blob_path.read_bytes()[:size])
    manifest["blob_bytes"] = size
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert f"has `{section[field]}.{field}` {dims[field]}, config has " in lines[0]
    assert lines[0].endswith("; run train again")


@pytest.mark.parametrize("damage, message", [
    (lambda manifest: manifest["train"].pop("epochs"), "records no `train.epochs`"),
    (lambda manifest: manifest.update(train=[3]), "records no `train` section"),
    (lambda manifest: manifest.pop("data"), "records no `data` section"),
], ids=["missing_field", "section_not_an_object", "missing_section"])
def test_checkpoint_record_damaged_exits_2_with_one_line(tmp_path, capsys, damage, message):
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    manifest_path = tmp_path / "run" / "ckpt.json"
    manifest = json.loads(manifest_path.read_text())
    damage(manifest)
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (f"error: checkpoint {tmp_path / 'run' / 'ckpt'} "
                                       f"{message}; run train again\n")


@pytest.mark.parametrize("name, damage, commands, message", [
    ("data.f32", None, ("train", "eval"), "missing blob"),
    ("ckpt.f32", None, ("eval",), "missing blob"),
    ("data.json", "{", ("train", "eval"), "is not valid JSON"),
    # 4 bytes x (2 + Z) x 8 x 5: the blob and its blob_bytes are cut to
    # Z = 1's length, the config's Z is 2
    ("ckpt.json", {"blob_bytes": 480}, ("eval",),
     "checkpoint blob has 480 bytes, expected 640 from the config's dims"),
    # the manifest older code wrote: the three dims and no record
    ("ckpt.json", json.dumps({"blob_bytes": 640, "feature_dim": 8, "format_version": 1,
                              "part_tokens": 2, "patch_input_dim": 5}), ("eval",),
     "records no `data` section; run train again"),
])
def test_damaged_artifact_exits_2_with_one_line(tmp_path, capsys, name, damage, commands,
                                                message):
    """``damage`` None deletes the file, a string replaces its text, and a
    dict sets manifest fields and cuts the blob beside it to ``blob_bytes``."""
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    path = tmp_path / "run" / name
    if damage is None:
        path.unlink()
    elif isinstance(damage, str):
        path.write_text(damage)
    else:
        manifest = {**json.loads(path.read_text()), **damage}
        path.write_text(json.dumps(manifest))
        blob_path = path.with_suffix(".f32")
        blob_path.write_bytes(blob_path.read_bytes()[:manifest["blob_bytes"]])
    capsys.readouterr()
    for command in commands:
        assert main([command, "--config", str(cfg)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and message in lines[0], lines


@pytest.mark.parametrize("root", ["[]", "1", '"config"', "null"])
def test_config_root_not_an_object_exits_2(tmp_path, capsys, root):
    cfg = tmp_path / "config.json"
    cfg.write_text(root)
    assert main(["gen-data", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: config is not a JSON object\n"


@pytest.mark.parametrize("old, new, message", [
    ('"seed": 3', '"seed": ' + "[" * 100_000 + "3" + "]" * 100_000,
     "config nests too deeply to parse"),
    # the last of two keys would otherwise win silently
    ('"epochs": 3', '"lr": 0.05, "lr": 500.0, "epochs": 3', "config repeats key 'lr'"),
], ids=["deep", "repeated_key"])
def test_config_json_too_deep_or_with_a_repeated_key_exits_2(tmp_path, capsys, old, new,
                                                            message):
    cfg = write_config(tmp_path)
    cfg.write_text(cfg.read_text().replace(old, new, 1))
    assert main(["gen-data", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("old, new, message", [
    ('"seed": 3', '"seed": ' + "[" * 5000 + "3" + "]" * 5000, "nests too deeply to parse"),
    ('"seed": 3', '"seed": 7, "seed": 3', "repeats key 'seed'"),
], ids=["deep", "repeated_key"])
def test_dataset_manifest_too_deep_or_with_a_repeated_key_exits_2(tmp_path, capsys, old,
                                                                 new, message):
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    manifest_path = tmp_path / "run" / "data.json"
    manifest_path.write_text(manifest_path.read_text().replace(old, new, 1))
    capsys.readouterr()
    for command in ("train", "eval"):
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: manifest {manifest_path} {message}\n"


def test_eval_writes_metrics(tmp_path, capsys):
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "mAP=" in out and "rank1=" in out
    doc = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert 0.0 <= doc["mAP"] <= 1.0
    assert len(doc["cmc"]) == 5
    assert doc["num_queries"] == 8


def test_eval_per_query_csv(tmp_path):
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    csv_path = tmp_path / "run" / "per_query.csv"
    assert main(["eval", "--config", str(cfg), "--per-query-csv", str(csv_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 9


def test_parser_is_built_once_per_process():
    assert _build_parser() is _build_parser()


def test_reused_parser_keeps_no_option_between_calls(tmp_path, capsys):
    """The one parser of a process hands each call only its own options:
    an ``eval`` after one given ``--per-query-csv`` writes no CSV, and a
    usage error after good commands is still one line and exit 2."""
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    csv_path = tmp_path / "run" / "per_query.csv"
    assert main(["eval", "--config", str(cfg), "--per-query-csv", str(csv_path)]) == 0
    csv_path.unlink()
    assert main(["eval", "--config", str(cfg)]) == 0
    assert not csv_path.exists()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["eval", "--config", str(cfg), "--per-query-csv"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == "error: argument --per-query-csv: expected one argument\n"
    assert captured.out == ""


def test_eval_is_byte_deterministic_over_several_query_blocks(tmp_path):
    """150 queries are scored in three blocks of at most ``BLOCK`` (64) rows;
    a second eval writes the same metrics and per-query CSV bytes."""
    cfg = write_config(tmp_path, data={"num_identities": 50, "samples_per_identity": 4},
                       train={"epochs": 0}, eval={"query_per_identity": 3})
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    run, outputs = tmp_path / "run", ("metrics.json", "per_query.csv")
    written = []
    for _ in range(2):
        assert main(["eval", "--config", str(cfg), "--per-query-csv",
                     str(run / "per_query.csv")]) == 0
        written.append([(run / name).read_bytes() for name in outputs])
    assert json.loads(written[0][0])["num_queries"] == 150 > BLOCK
    assert written[0] == written[1]


def test_eval_corrupted_blob_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    blob_path = tmp_path / "run" / "ckpt.f32"
    blob_path.write_bytes(blob_path.read_bytes()[:-4])
    assert main(["eval", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "blob" in err and "manifest" in err


@pytest.mark.parametrize("overrides, field", [
    ({"train": {"weight_anchor": 0.0, "epochs": 5, "seed": 7}}, "train.epochs"),
    ({"data": {"seed": 7}}, "data.seed"),
    ({"train": {"feature_dim": 16}}, "train.feature_dim"),
], ids=["other_train_settings", "other_dataset", "other_dims"])
def test_stale_checkpoint_exits_2_and_writes_no_metrics(tmp_path, capsys, overrides, field):
    """``eval`` under a config other than the one that trained the checkpoint
    (a fresh dataset from ``gen-data`` under it included) exits 2 with one
    line naming the first differing field; the metrics of an earlier eval
    keep their bytes, and none are written where there were none."""
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    assert main(["eval", "--config", str(cfg)]) == 0
    metrics = tmp_path / "run" / "metrics.json"
    earlier = metrics.read_bytes()
    stale = write_config(tmp_path, **overrides)
    if "data" in overrides:
        assert main(["gen-data", "--config", str(stale)]) == 0
    capsys.readouterr()
    for kept in (earlier, None):
        assert main(["eval", "--config", str(stale)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and f"has `{field}` " in lines[0], lines
        assert lines[0].endswith("; run train again")
        assert (metrics.read_bytes() if metrics.exists() else None) == kept
        metrics.unlink(missing_ok=True)


@pytest.fixture(scope="module")
def pristine_run(tmp_path_factory):
    """Config path and the bytes of a tiny trained run's four artifact files."""
    tmp_path = tmp_path_factory.mktemp("pristine")
    cfg = write_config(tmp_path, train={"epochs": 1})
    assert main(["gen-data", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    files = {f"{name}{suffix}": tmp_path / "run" / f"{name}{suffix}"
             for name in ("data", "ckpt") for suffix in (".json", ".f32")}
    return cfg, {key: (path, path.read_bytes()) for key, path in files.items()}


def json_value_of_another_type(value):
    """A JSON value whose type differs from ``value``'s (int and float are
    told apart only for integer fields, as the manifest decoders do)."""
    choices = [st.none(), st.booleans(), st.text(max_size=3),
               st.lists(st.integers(), max_size=2),
               st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)]
    if type(value) is int:
        choices.append(st.floats())
    return st.one_of(choices)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_eval_survives_corrupt_artifacts(pristine_run, data):
    """One drawn mutation of the dataset or checkpoint pair: ``eval`` returns
    0 or 2 with at most one stderr line, and 2 for every manifest type
    change, missing field, blob length change or non-finite float word."""
    cfg, files = pristine_run
    for path, content in files.values():
        path.write_bytes(content)
    name = data.draw(st.sampled_from(["data", "ckpt"]))
    manifest_path, manifest_bytes = files[name + ".json"]
    blob_path, blob = files[name + ".f32"]
    manifest = json.loads(manifest_bytes)
    kind = data.draw(st.sampled_from(["type", "delete", "length", "word"]))
    must_fail = True
    if kind in ("type", "delete"):
        field = data.draw(st.sampled_from(sorted(manifest)))
        if kind == "type":
            manifest[field] = data.draw(json_value_of_another_type(manifest[field]))
        else:
            del manifest[field]
        manifest_path.write_text(json.dumps(manifest))
    elif kind == "length":
        delta = data.draw(st.integers(-len(blob), 64).filter(bool))
        blob_path.write_bytes(blob[:len(blob) + delta] + bytes(max(delta, 0)))
    else:
        at = 4 * data.draw(st.integers(0, len(blob) // 4 - 1))
        mask = data.draw(st.integers(1, 2**32 - 1))
        word = (int.from_bytes(blob[at:at + 4], "little") ^ mask).to_bytes(4, "little")
        blob_path.write_bytes(blob[:at] + word + blob[at + 4:])
        must_fail = not np.isfinite(np.frombuffer(word, "<f4")[0])
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["eval", "--config", str(cfg)])
    assert code in ((2,) if must_fail else (0, 2))
    assert len(err.getvalue().strip().splitlines()) <= 1


def test_train_numeric_failure_exits_3_with_diagnostics(tmp_path, capsys, monkeypatch):
    import numpy as np

    import tokmem.training as training_mod
    from tokmem.losses import LossOutput

    def broken(image_features, *args, **kwargs):
        return LossOutput(value=np.full(len(image_features), np.nan),
                          grad_image_feature=np.zeros_like(image_features), coeff=None)

    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    monkeypatch.setattr(training_mod.losses_mod, "softmax_ce", broken)
    assert main(["train", "--config", str(cfg)]) == 3
    assert "non-finite" in capsys.readouterr().err
    diag = json.loads((tmp_path / "run" / "log.jsonl.diag.json").read_text())
    assert diag["epoch"] == 0


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("train_override, message", [
    ({"lr": 1e40}, "float32"), ({"temperature": 1e-320}, "non-finite loss")])
def test_diverged_training_exits_3_with_strict_json_diagnostics(tmp_path, capsys,
                                                                train_override, message):
    cfg = write_config(tmp_path, train=train_override)
    main(["gen-data", "--config", str(cfg)])
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert main(["train", "--config", str(cfg)]) == 3
    assert message in capsys.readouterr().err
    run = tmp_path / "run"
    assert not (run / "ckpt.json").exists() and not (run / "ckpt.f32").exists()
    diag = json.loads((run / "log.jsonl.diag.json").read_text(),
                      parse_constant=_refuse_constant)
    assert diag["epoch"] == 0


@pytest.mark.parametrize("train_override", [{"temperature": 1e-320}, {"lr": 1e200}])
def test_numeric_failure_is_one_stderr_line(tmp_path, train_override):
    """A diverging reference run prints its one-line error and no numpy
    warnings; a separate process, so that stderr is what a user sees."""
    repo = Path(__file__).resolve().parent.parent
    doc = json.loads((repo / "configs" / "reference.json").read_text())
    doc["train"].update(train_override)
    doc["paths"] = {name: str(tmp_path / name)
                    for name in ("dataset", "checkpoint", "log", "metrics")}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["gen-data", "--config", str(config)]) == 0
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    proc = subprocess.run([sys.executable, "-m", "tokmem.cli", "train", "--config",
                           str(config)], capture_output=True, text=True, env=env)
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_dataset_at_the_diagnostics_path_exits_2_and_keeps_files(tmp_path, capsys):
    """A failing train would write its diagnostics over a dataset manifest
    at ``<log>.diag.json``; the config is refused before training."""
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    run = tmp_path / "run"
    for suffix in (".json", ".f32"):
        (run / f"log.jsonl.diag{suffix}").write_bytes((run / f"data{suffix}").read_bytes())
    before = run_files(run)
    capsys.readouterr()
    write_config(tmp_path, train={"temperature": 1e-320},
                 paths={"dataset": str(run / "log.jsonl.diag")})
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "`paths.dataset` and `<paths.log>.diag.json`" in err
    assert len(err.strip().splitlines()) == 1
    assert run_files(run) == before


def test_gradcheck_passes_and_reports(tmp_path, capsys):
    assert main(["gradcheck", "--seed", "1", "--trials", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_gradcheck_deterministic_report(capsys):
    assert main(["gradcheck", "--seed", "5", "--trials", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["gradcheck", "--seed", "5", "--trials", "2"]) == 0
    assert capsys.readouterr().out == first


def test_gradcheck_broken_gradient_exits_1(monkeypatch, capsys):
    def broken(rng):
        return 1.0  # huge relative error

    monkeypatch.setitem(gradcheck_mod.COMPONENTS, "anchor_loss", broken)
    assert main(["gradcheck", "--seed", "1", "--trials", "2"]) == 1
    captured = capsys.readouterr()
    assert "FAIL anchor_loss" in captured.out
    assert "anchor_loss" in captured.err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_gradcheck_out_of_range_seed_exits_2(monkeypatch, capsys, seed):
    ran = []
    for name in gradcheck_mod.COMPONENTS:
        monkeypatch.setitem(gradcheck_mod.COMPONENTS, name, ran.append)
    assert main(["gradcheck", "--seed", seed, "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: seed must be in [0, 2**64), got {seed}\n"
    assert captured.out == "" and ran == []


def test_gradcheck_zero_trials_exits_2(monkeypatch, capsys):
    ran = []
    for name in gradcheck_mod.COMPONENTS:
        monkeypatch.setitem(gradcheck_mod.COMPONENTS, name, ran.append)
    assert main(["gradcheck", "--seed", "0", "--trials", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: trials must be >= 1, got 0\n"
    assert captured.out == "" and ran == []


def test_gradcheck_encoder_checks_token_subsets_and_all_tokens(monkeypatch):
    """The encoder check feeds the backward distinct per-row token subsets,
    as training does: over the default 50 trials both K < I and K = I occur."""
    real = gradcheck_mod.encoder_mod.encode_backward
    seen = set()

    def spy(out, grad_image_feature, selected, grad_selected):
        assert all(len(set(row)) == len(row) for row in selected.tolist())
        seen.add(selected.shape[-1] == out.patch_tokens.shape[-2])
        return real(out, grad_image_feature, selected, grad_selected)

    monkeypatch.setattr(gradcheck_mod.encoder_mod, "encode_backward", spy)
    check = gradcheck_mod.COMPONENTS["encode_backward"]
    for name in gradcheck_mod.COMPONENTS:
        monkeypatch.setitem(gradcheck_mod.COMPONENTS, name, lambda rng: 0.0)
    monkeypatch.setitem(gradcheck_mod.COMPONENTS, "encode_backward", check)
    results = gradcheck_mod.run_gradcheck(seed=0)
    assert results["encode_backward"] < gradcheck_mod.TOLERANCE
    assert seen == {False, True}
