import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tokmem.config import load_run_config
from tokmem.errors import ConfigError
from tokmem.synth import SynthSpec
from tokmem.training import TrainConfig


def valid_doc():
    return {
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
        "train": {"epochs": 2, "batch_size": 4, "feature_dim": 8, "part_tokens": 2,
                  "dbscan_eps": 0.3, "dbscan_min_pts": 2, "seed": 11},
        "eval": {"query_per_identity": 2, "k_max": 5, "seed": 7},
        "paths": {"dataset": "runs/t/data", "checkpoint": "runs/t/ckpt",
                  "log": "runs/t/log.jsonl", "metrics": "runs/t/metrics.json"},
    }


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_valid_config_parses(tmp_path):
    cfg = load_run_config(write_config(tmp_path, valid_doc()))
    assert cfg.data.num_identities == 4
    assert cfg.train.batch_size == 4
    # the patch geometry lives in the data section only
    assert (cfg.data.patches_per_image, cfg.data.patch_input_dim) == (6, 5)
    assert cfg.eval.k_max == 5
    assert str(cfg.paths.checkpoint) == "runs/t/ckpt"


def test_train_and_eval_defaults(tmp_path):
    doc = valid_doc()
    doc["data"]["samples_per_identity"] = 8  # room for the default batch of 32
    doc["train"] = {}
    del doc["eval"]
    cfg = load_run_config(write_config(tmp_path, doc))
    assert cfg.train.temperature == 0.05
    assert cfg.train.momentum == 0.2
    assert cfg.train.neg_token_rate == 0.075
    assert cfg.train.num_negatives == 4
    assert cfg.eval.query_per_identity == 3


def test_missing_data_seed_names_field(tmp_path):
    doc = valid_doc()
    del doc["data"]["seed"]
    with pytest.raises(ConfigError, match="data.seed"):
        load_run_config(write_config(tmp_path, doc))
    del doc["data"]  # a missing section names its first field
    with pytest.raises(ConfigError, match="missing `data.num_identities`"):
        load_run_config(write_config(tmp_path, doc))


def test_unknown_keys_rejected_everywhere(tmp_path):
    for section, key in [("data", "sigma"), ("train", "learning_rate"),
                         ("eval", "kmax"), ("paths", "output")]:
        doc = valid_doc()
        doc[section][key] = 1
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            load_run_config(write_config(tmp_path, doc))
    doc = valid_doc()
    doc["extra"] = {}
    with pytest.raises(ConfigError, match="extra"):
        load_run_config(write_config(tmp_path, doc))


def test_patch_geometry_not_accepted_in_train_section(tmp_path):
    doc = valid_doc()
    doc["train"]["patches_per_image"] = 6
    with pytest.raises(ConfigError, match="train.patches_per_image"):
        load_run_config(write_config(tmp_path, doc))


def test_format_version_required_and_checked(tmp_path):
    doc = valid_doc()
    del doc["format_version"]
    with pytest.raises(ConfigError, match="format_version"):
        load_run_config(write_config(tmp_path, doc))
    doc = valid_doc()
    doc["format_version"] = 2
    with pytest.raises(ConfigError, match="format_version"):
        load_run_config(write_config(tmp_path, doc))
    doc["format_version"] = True  # equal to 1 in Python, but no JSON integer
    with pytest.raises(ConfigError, match="`format_version` must be an integer, got bool"):
        load_run_config(write_config(tmp_path, doc))


def test_type_errors_name_field(tmp_path):
    doc = valid_doc()
    doc["data"]["num_identities"] = "four"
    with pytest.raises(ConfigError, match="data.num_identities"):
        load_run_config(write_config(tmp_path, doc))
    doc = valid_doc()
    doc["data"]["num_identities"] = True  # bool is not an int here
    with pytest.raises(ConfigError, match="data.num_identities"):
        load_run_config(write_config(tmp_path, doc))
    doc = valid_doc()
    doc["paths"]["log"] = 5
    with pytest.raises(ConfigError, match="paths.log"):
        load_run_config(write_config(tmp_path, doc))
    doc = valid_doc()
    doc["data"]["identity_spread"] = 10**400  # a JSON integer no float holds
    with pytest.raises(ConfigError, match="data.identity_spread"):
        load_run_config(write_config(tmp_path, doc))
    # JSON texts that no finite float holds (1e400 and 1e999 parse to inf)
    for section, key, text in [("train", "lr", "1e400"), ("train", "temperature", "Infinity"),
                               ("train", "dbscan_eps", "1e999"), ("train", "momentum", "NaN"),
                               ("data", "identity_spread", "Infinity")]:
        doc = valid_doc()
        doc[section][key] = "@"
        path = write_config(tmp_path, doc)
        path.write_text(path.read_text().replace('"@"', text))
        with pytest.raises(ConfigError, match=f"`{section}.{key}` must be a finite number"):
            load_run_config(path)
    for section in ("data", "train", "eval", "paths"):
        doc = valid_doc()
        doc[section] = None
        with pytest.raises(ConfigError, match=f"section `{section}` must be an object"):
            load_run_config(write_config(tmp_path, doc))


def test_invalid_values_rejected(tmp_path):
    doc = valid_doc()
    doc["data"]["num_identities"] = 1
    with pytest.raises(ConfigError, match="num_identities"):
        load_run_config(write_config(tmp_path, doc))
    doc = valid_doc()
    doc["train"]["temperature"] = 0.0
    with pytest.raises(ConfigError, match="temperature"):
        load_run_config(write_config(tmp_path, doc))


def test_missing_paths_rejected(tmp_path):
    doc = valid_doc()
    del doc["paths"]["metrics"]
    with pytest.raises(ConfigError, match="paths.metrics"):
        load_run_config(write_config(tmp_path, doc))


def test_malformed_json_and_missing_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_run_config(bad)
    bad.write_bytes(b'{"format_version": 1\xff}')  # not UTF-8
    with pytest.raises(ConfigError, match="config is not valid JSON: 'utf-8' codec"):
        load_run_config(bad)
    with pytest.raises(ConfigError, match="not found"):
        load_run_config(tmp_path / "absent.json")


@pytest.mark.parametrize("section, key, value, message", [
    # each identity needs a query and a gallery sample
    ("data", "samples_per_identity", 1, r"^`data.samples_per_identity` must be >= 2"),
    # samples_per_identity is 6: at most 5 queries per identity
    ("eval", "query_per_identity", 6, "eval.query_per_identity"),
    ("eval", "query_per_identity", 0, "eval.query_per_identity"),
    # the gallery holds 4 identities x (6 - 2) samples = 16
    ("eval", "k_max", 17, "eval.k_max"),
    ("eval", "k_max", 10000, "eval.k_max"),
    ("eval", "k_max", 0, "eval.k_max"),
    # the dataset holds 4 x 6 = 24 samples
    ("train", "batch_size", 25, "train.batch_size"),
    # 6 patches per image: at most 6 part stripes
    ("train", "part_tokens", 7, "train.part_tokens"),
    # a Philox key is a 64-bit unsigned integer
    ("eval", "seed", -1, "eval.seed"),
    ("eval", "seed", 2**64, "eval.seed"),
    # 6 patches per image: rate 1.0 would pick all 6 as negatives
    ("train", "neg_token_rate", 1.0, "train.neg_token_rate"),
])
def test_cross_section_limits_rejected_at_load(tmp_path, section, key, value, message):
    doc = valid_doc()
    doc[section][key] = value
    with pytest.raises(ConfigError, match=message):
        load_run_config(write_config(tmp_path, doc))


def test_cross_section_limits_accept_the_extremes(tmp_path):
    doc = valid_doc()
    doc["eval"].update(query_per_identity=5, k_max=4)  # gallery 4 x 1
    doc["train"].update(batch_size=24, part_tokens=6)
    cfg = load_run_config(write_config(tmp_path, doc))
    assert (cfg.eval.query_per_identity, cfg.eval.k_max, cfg.train.batch_size) == (5, 4, 24)
    assert cfg.train.part_tokens == 6


@pytest.mark.parametrize("lr, epochs, factor, finite", [
    (1e-7, 3, 1e300, False), (1e10, 2, 1e300, False), (1e-7, 2, 1e300, True),
    (1e10, 1, 1e300, True), (1e10, 0, 1e300, True), (1e-7, 1024, 2.0, True),
    (1e-7, 1025, 2.0, False)])
def test_lr_schedule_must_stay_finite(tmp_path, lr, epochs, factor, finite):
    """lr * factor ** (epoch // every), every 1: a growing schedule loads
    while its last epoch's lr is finite (2.0 ** 1023 is, 2.0 ** 1024 and
    1e10 * 1e300 are not), and beyond that fails naming the decay factor."""
    doc = valid_doc()
    doc["train"].update(epochs=epochs, lr=lr, lr_decay_factor=factor, lr_decay_every=1)
    if finite:
        assert load_run_config(write_config(tmp_path, doc)).train.lr_decay_factor == factor
        return
    with pytest.raises(ConfigError, match=r"^`train.lr_decay_factor` must be small enough "
                                          r"that the last epoch's lr is finite, got "):
        load_run_config(write_config(tmp_path, doc))


@pytest.mark.parametrize("field, value, other", [
    ("log", "runs/t/data.json", "paths.dataset"),
    ("metrics", "runs/t/ckpt.json", "paths.checkpoint"),
    ("log", "runs/t/ckpt.json", "paths.checkpoint"),
    ("checkpoint", "runs/t/data", "paths.dataset"),
    ("metrics", "runs/t/log.jsonl", "paths.log"),
    ("log", "runs/x/../t/ckpt.f32", "paths.checkpoint"),
    ("dataset", "<tmp>/config", "--config"),
    ("checkpoint", "<tmp>/config", "--config"),
    ("log", "<tmp>/config.json", "--config"),
    ("metrics", "<tmp>/x/../config.json", "--config"),
])
def test_colliding_artifact_paths_rejected_at_load(tmp_path, field, value, other):
    """The dataset pair, the checkpoint pair, log and metrics must be six
    distinct files once resolved, none of them the config file itself
    (``<tmp>/config.json``); the error names both fields."""
    doc = valid_doc()
    doc["paths"][field] = value.replace("<tmp>", str(tmp_path))
    with pytest.raises(ConfigError) as info:
        load_run_config(write_config(tmp_path, doc))
    assert f"`{other}`" in str(info.value) and f"`paths.{field}`" in str(info.value)


def test_missing_paths_named_in_field_order_under_any_hash_seed(tmp_path):
    """`paths` holding only `dataset` names `paths.checkpoint`, the first
    missing field, whatever the string hash seed of the process."""
    doc = valid_doc()
    doc["paths"] = {"dataset": "runs/t/data"}
    config = write_config(tmp_path, doc)
    src = Path(__file__).resolve().parent.parent / "src"
    messages = set()
    for seed in ("0", "1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-m", "tokmem.cli", "train",
                               "--config", str(config)],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 2
        messages.add(proc.stderr)
    assert messages == {"error: missing `paths.checkpoint`\n"}


def readme_table(heading):
    """The first-column names and second-column cells of the table under a
    README heading."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split(heading, 1)[1].split("\n### ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines()
            if line.startswith("| `")]
    return {name.strip().strip("`"): cell.strip() for name, cell in rows}


def test_readme_schema_tables_match_the_dataclasses():
    train = readme_table("### `train`")
    assert train == {f.name: json.dumps(f.default) for f in dataclasses.fields(TrainConfig)}
    assert list(readme_table("### `data`")) == [f.name for f in dataclasses.fields(SynthSpec)]
