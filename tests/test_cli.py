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
from tokmem.cli import main
from tokmem.encoder import init_params, load_checkpoint
from tokmem.linalg import BLOCK


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


def test_gen_data_out_override(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "alt")]) == 0
    assert (tmp_path / "alt.json").exists()
    assert (tmp_path / "alt.f32").exists()


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
    load_checkpoint(tmp_path / "run" / "ckpt")


def test_train_zero_epochs_checkpoint_is_initial(tmp_path):
    cfg = write_config(tmp_path, train={"epochs": 0})
    main(["gen-data", "--config", str(cfg)])
    assert main(["train", "--config", str(cfg)]) == 0
    params = load_checkpoint(tmp_path / "run" / "ckpt")
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
                                                 ("num_samples", 24.0, "num_samples"),
                                                 ("num_samples", 25, "manifest num_samples 25 "
                                                  "does not match spec (24)"),
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
    ("--checkpoint", "metrics", "`paths.checkpoint` and `paths.metrics`"),
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
    (["gen-data", "--out", "config"], "`--config` and `paths.dataset`"),
    (["eval", "--checkpoint", "config"], "`--config` and `paths.checkpoint`"),
    (["eval", "--per-query-csv", "config.json"], "`--config` and `--per-query-csv`"),
], ids=["gen-data_out", "eval_checkpoint", "eval_per_query_csv"])
def test_flag_naming_the_config_exits_2_and_keeps_it(tmp_path, capsys, argv, names):
    """An override flag that names the config file is refused before any
    write, whichever command takes it."""
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


@pytest.mark.parametrize("value", [None, [8], 8.7])
def test_checkpoint_manifest_bad_dim_exits_2(tmp_path, capsys, value):
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    manifest_path = tmp_path / "run" / "ckpt.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["feature_dim"] = value
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "feature_dim" in err and "must be an integer" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("dims,field", [
    ({"feature_dim": -8, "patch_input_dim": -5}, "feature_dim"),
    ({"patch_input_dim": 0}, "patch_input_dim"),
    ({"part_tokens": 0}, "part_tokens"),
])
def test_checkpoint_manifest_dim_out_of_range_exits_2(tmp_path, capsys, dims, field):
    """The blob is cut to the length the bad dims ask for, so only the
    range check can catch them."""
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    manifest_path, blob_path = tmp_path / "run" / "ckpt.json", tmp_path / "run" / "ckpt.f32"
    manifest = {**json.loads(manifest_path.read_text()), **dims}
    d, d_in, z = (manifest[k] for k in ("feature_dim", "patch_input_dim", "part_tokens"))
    size = 4 * (2 + z) * d * d_in
    blob_path.write_bytes(blob_path.read_bytes()[:size])
    manifest["blob_bytes"] = size
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'run' / 'ckpt'}: manifest field '{field}' must be >=" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("name, damage, commands, message", [
    ("data.f32", None, ("train", "eval"), "missing blob"),
    ("ckpt.f32", None, ("eval",), "missing blob"),
    ("data.json", "{", ("train", "eval"), "is not valid JSON"),
    # 4 bytes x (2 + Z) x 8 x 5: the blob and its blob_bytes are Z = 2's
    ("ckpt.json", {"part_tokens": 3}, ("eval",),
     "checkpoint blob has 640 bytes, expected 800 from manifest dims"),
])
def test_damaged_artifact_exits_2_with_one_line(tmp_path, capsys, name, damage, commands,
                                                message):
    """``damage`` None deletes the file, a string replaces its text, and a
    dict sets manifest fields."""
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    path = tmp_path / "run" / name
    if damage is None:
        path.unlink()
    elif isinstance(damage, str):
        path.write_text(damage)
    else:
        path.write_text(json.dumps({**json.loads(path.read_text()), **damage}))
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
    assert capsys.readouterr().err == "error: config root must be an object\n"


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


def test_eval_is_byte_deterministic_over_several_query_blocks(tmp_path):
    """150 queries are scored in two blocks of at most ``BLOCK`` (128) rows;
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


def test_eval_dimension_mismatch_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    mismatched = write_config(tmp_path, train={"feature_dim": 16})
    assert main(["eval", "--config", str(mismatched)]) == 2
    assert "feature_dim" in capsys.readouterr().err


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
                          grad_image_feature=np.zeros_like(image_features))

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


def test_gen_data_out_onto_an_artifact_exits_2_and_keeps_files(tmp_path, capsys):
    cfg = write_config(tmp_path)
    main(["gen-data", "--config", str(cfg)])
    main(["train", "--config", str(cfg)])
    run = tmp_path / "run"
    before = run_files(run)
    capsys.readouterr()
    assert main(["gen-data", "--config", str(cfg), "--out", str(run / "ckpt")]) == 2
    err = capsys.readouterr().err
    assert "`paths.dataset` and `paths.checkpoint`" in err
    assert len(err.strip().splitlines()) == 1
    assert run_files(run) == before


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
