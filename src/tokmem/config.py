"""Run-config files: one JSON document describing a whole experiment.

Sections: ``data`` (dataset recipe, all fields required), ``train``
(hyperparameters, all optional with defaults), ``eval`` (retrieval
protocol, optional with defaults), ``paths`` (artifact locations, all
required). ``format_version: 1`` is mandatory. Unknown keys anywhere are
rejected so hyperparameter typos cannot pass silently; every validation
message names the offending field path, and a value out of range reads
"`section.field` must be <bound>, got <value>". Limits across sections
(query split, ``k_max``, batch size, part and negative tokens), the lr
schedule, and artifact files distinct from each other and from the
config are checked at load, before any command runs.

The patch geometry (``patches_per_image``, ``patch_input_dim``) lives in
``data`` only; training reads it from the dataset it trains on.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
from dataclasses import dataclass
from pathlib import Path

from .blobio import decode, pair_paths
from .errors import ConfigError, check_fields
from .synth import MAX_SEED, SEED_RANGE, SynthSpec
from .training import TrainConfig

__all__ = ["EvalConfig", "RunPaths", "RunConfig", "check_distinct_files", "load_run_config"]

FORMAT_VERSION = 1


@dataclass
class EvalConfig:
    query_per_identity: int = 3
    k_max: int = 10
    seed: int = 7


@dataclass
class RunPaths:
    dataset: Path
    checkpoint: Path
    log: Path
    metrics: Path

    @property
    def diagnostics(self) -> Path:
        """Where ``train`` writes the diagnostics of a numeric failure."""
        return Path(str(self.log) + ".diag.json")


@dataclass
class RunConfig:
    data: SynthSpec
    train: TrainConfig
    eval: EvalConfig
    paths: RunPaths


def _parse_section(doc: dict, section_name: str, cls):
    """An instance of ``cls`` from the section of ``doc`` so named; a field
    without a default is required."""
    section = doc.get(section_name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"section `{section_name}` must be an object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key in section:
        if key not in fields:
            raise ConfigError(f"unknown key `{section_name}.{key}`")
    kwargs = {}
    for name, f in fields.items():
        path = f"{section_name}.{name}"
        if name in section:
            kwargs[name] = decode(section[name], f.type, f"`{path}`", ConfigError)
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"missing `{path}`")
    return cls(**kwargs)


def _check_limits(data: SynthSpec, eval_cfg: EvalConfig) -> None:
    """The ``eval`` rows, checked at load so that no command runs (say,
    30 epochs of training) on a config ``eval`` rejects."""
    spi, query = data.samples_per_identity, eval_cfg.query_per_identity
    gallery = data.num_identities * (spi - query)
    check_fields(vars(eval_cfg), [
        ("query_per_identity", 1 <= query < spi, f"in [1, {spi - 1}]"),
        ("k_max", 1 <= eval_cfg.k_max <= gallery, f"in [1, {gallery}], the gallery size"),
        ("seed", 0 <= eval_cfg.seed < MAX_SEED, f"in {SEED_RANGE}")],
        ConfigError, lambda f: f"`eval.{f}`")


def check_distinct_files(paths: RunPaths, config: str | Path,
                         per_query_csv: Path | None = None) -> None:
    """ConfigError naming both fields unless the ``config`` file itself, the
    dataset and checkpoint pairs, ``log``, its ``diagnostics``, ``metrics``
    and ``per_query_csv`` (if given) are distinct files (absolute,
    directories resolved): no artifact may replace another, or the config."""
    files = [("--config", config)]
    files += [(f"paths.{name}", path) for name in ("dataset", "checkpoint")
              for path in pair_paths(getattr(paths, name))]
    files += [("paths.log", paths.log), ("<paths.log>.diag.json", paths.diagnostics),
              ("paths.metrics", paths.metrics)]
    if per_query_csv is not None:
        files.append(("--per-query-csv", per_query_csv))
    seen: dict[str, str] = {}
    real_dir = functools.cache(os.path.realpath)  # an lstat per component: once per directory
    for name, path in files:
        folder, base = os.path.split(os.path.abspath(path))
        first = seen.setdefault(os.path.join(real_dir(folder), base), name)
        if first != name:
            raise ConfigError(f"`{first}` and `{name}` name the same file {path}")


def load_run_config(path) -> RunConfig:
    """Parse and validate a run-config file; raises ConfigError on any problem."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")

    known_top = {"format_version", "data", "train", "eval", "paths"}
    for key in doc:
        if key not in known_top:
            raise ConfigError(f"unknown key `{key}`")
    if "format_version" not in doc:
        raise ConfigError("missing `format_version`")
    version = decode(doc["format_version"], "int", "`format_version`", ConfigError)
    if version != FORMAT_VERSION:
        raise ConfigError(f"unsupported `format_version` {version} (expected {FORMAT_VERSION})")

    data = _parse_section(doc, "data", SynthSpec)
    data.validate(ConfigError, lambda f: f"`data.{f}`")
    train = _parse_section(doc, "train", TrainConfig)
    train.validate(data, ConfigError, lambda f: f"`train.{f}`")
    eval_cfg = _parse_section(doc, "eval", EvalConfig)
    _check_limits(data, eval_cfg)
    paths = _parse_section(doc, "paths", RunPaths)
    check_distinct_files(paths, path)
    return RunConfig(data=data, train=train, eval=eval_cfg, paths=paths)
