"""Run-config files: one JSON document describing a whole experiment.

Sections: ``data`` (dataset recipe, all fields required), ``train``
(hyperparameters, all optional with defaults), ``eval`` (retrieval
protocol, optional with defaults), ``paths`` (artifact locations, all
required). ``format_version: 1`` is mandatory. Unknown keys anywhere are
rejected so hyperparameter typos cannot pass silently; every validation
message names the offending field path. Limits across sections (query
split, ``k_max``, batch size) are checked at load, before any command runs.

The patch geometry (``patches_per_image``, ``patch_input_dim``) lives in
``data`` only and is injected into the training config, so the two can
never disagree inside one file.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .synth import SynthSpec
from .training import TrainConfig

__all__ = ["EvalConfig", "RunPaths", "RunConfig", "load_run_config"]

FORMAT_VERSION = 1

# train-section keys supplied by the data section, not by the user
_INJECTED_TRAIN_KEYS = {"patches_per_image", "patch_input_dim"}


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


@dataclass
class RunConfig:
    data: SynthSpec
    train: TrainConfig
    eval: EvalConfig
    paths: RunPaths


def _require_section(doc: dict, name: str) -> dict:
    if name not in doc:
        raise ConfigError(f"missing section `{name}`")
    section = doc[name]
    if not isinstance(section, dict):
        raise ConfigError(f"section `{name}` must be an object")
    return section


# field annotation -> the exact JSON types it accepts (a bool is no int
# here, though Python makes it one) and how a message names them
_JSON_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
               "bool": ((bool,), "a boolean"), "str": ((str,), "a string"),
               "Path": ((str,), "a string")}


def _check_type(path: str, value, annotation: str):
    types, kind = _JSON_TYPES[annotation]
    if type(value) not in types:
        raise ConfigError(f"`{path}` must be {kind}, got {type(value).__name__}")
    if annotation != "float":
        return value
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"`{path}` is too large for a float") from None


def _parse_section(section: dict, section_name: str, cls, *, required_all: bool,
                   skip: set[str] = frozenset()):
    fields = {f.name: f for f in dataclasses.fields(cls) if f.name not in skip}
    for key in section:
        if key not in fields:
            raise ConfigError(f"unknown key `{section_name}.{key}`")
    kwargs = {}
    for name, f in fields.items():
        path = f"{section_name}.{name}"
        if name in section:
            kwargs[name] = _check_type(path, section[name], f.type)
        elif required_all or f.default is dataclasses.MISSING:
            raise ConfigError(f"missing `{path}`")
    return kwargs


def _check_limits(data: SynthSpec, train: TrainConfig, eval_cfg: EvalConfig) -> None:
    """Limits across sections and ``eval.seed``, checked at load so that no
    command runs (say, 30 epochs of training) on a config ``eval`` rejects."""
    spi, query = data.samples_per_identity, eval_cfg.query_per_identity
    gallery = data.num_identities * (spi - query)
    for ok, name, value, bound in [
            (1 <= query < spi, "eval.query_per_identity", query, f"in [1, {spi - 1}]"),
            (1 <= eval_cfg.k_max <= gallery, "eval.k_max", eval_cfg.k_max,
             f"in [1, {gallery}], the gallery size"),
            (train.batch_size <= data.num_samples, "train.batch_size", train.batch_size,
             f"<= {data.num_samples}, the dataset size"),
            (0 <= eval_cfg.seed < 2**64, "eval.seed", eval_cfg.seed, "in [0, 2**64)")]:
        if not ok:
            raise ConfigError(f"`{name}` must be {bound}, got {value}")


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
    if doc["format_version"] != FORMAT_VERSION:
        raise ConfigError(
            f"unsupported `format_version` {doc['format_version']!r} (expected {FORMAT_VERSION})")

    data_kwargs = _parse_section(_require_section(doc, "data"), "data",
                                 SynthSpec, required_all=True)
    data = SynthSpec(**data_kwargs)
    try:
        data.validate()
    except ValueError as exc:
        raise ConfigError(f"invalid `data` section: {exc}") from exc

    train_kwargs = _parse_section(doc.get("train", {}), "train", TrainConfig,
                                  required_all=False, skip=_INJECTED_TRAIN_KEYS)
    train = TrainConfig(patches_per_image=data.patches_per_image,
                        patch_input_dim=data.patch_input_dim, **train_kwargs)
    try:
        train.validate()
    except ValueError as exc:
        raise ConfigError(f"invalid `train` section: {exc}") from exc

    eval_kwargs = _parse_section(doc.get("eval", {}), "eval", EvalConfig,
                                 required_all=False)
    eval_cfg = EvalConfig(**eval_kwargs)
    _check_limits(data, train, eval_cfg)

    paths_kwargs = _parse_section(_require_section(doc, "paths"), "paths", RunPaths,
                                  required_all=True)
    paths = RunPaths(**{name: Path(value) for name, value in paths_kwargs.items()})

    return RunConfig(data=data, train=train, eval=eval_cfg, paths=paths)
