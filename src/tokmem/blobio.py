"""Manifest+blob file pairs.

Every on-disk artifact (dataset, checkpoint) is a JSON manifest next to
a raw binary blob of little-endian float32 / int32 values; the manifest
records the blob's byte length so readers can detect truncation.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .errors import DataFormatError

FORMAT_VERSION = 1
BLOB_SUFFIX = ".f32"

F32 = np.dtype("<f4")
I32 = np.dtype("<i4")


def pair_paths(prefix: str | Path) -> tuple[Path, Path]:
    """Suffixes are appended, not substituted, so dotted prefixes stay intact."""
    return Path(str(prefix) + ".json"), Path(str(prefix) + BLOB_SUFFIX)


def write_pair(prefix: str | Path, manifest: dict, blob: bytes) -> tuple[Path, Path]:
    """Write ``<prefix>.json`` and ``<prefix>.f32``; returns both paths. Both
    go to temporary siblings first, then are renamed over their targets,
    blob before manifest, so a failed write leaves the previous pair."""
    manifest = dict(manifest)
    manifest["format_version"] = FORMAT_VERSION
    manifest["blob_bytes"] = len(blob)
    manifest_path, blob_path = pair_paths(prefix)
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    staged = [(path, path.with_name(path.name + ".tmp"), data)
              for path, data in ((blob_path, blob), (manifest_path, text.encode()))]
    try:
        for _, tmp, data in staged:
            tmp.write_bytes(data)
        for path, tmp, _ in staged:
            os.replace(tmp, path)
    finally:
        for _, tmp, _ in staged:
            tmp.unlink(missing_ok=True)
    return manifest_path, blob_path


def read_pair(prefix: str | Path) -> tuple[dict, bytes]:
    """Read a manifest+blob pair, validating version and blob length."""
    manifest_path, blob_path = pair_paths(prefix)
    if not manifest_path.exists():
        raise FileNotFoundError(f"missing manifest {manifest_path}")
    if not blob_path.exists():
        raise FileNotFoundError(f"missing blob {blob_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"manifest {manifest_path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataFormatError(f"manifest {manifest_path} is not a JSON object")
    version = manifest_int(manifest, "format_version", manifest_path)
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{manifest_path}: unsupported format_version {version}")
    blob = blob_path.read_bytes()
    expected = manifest_int(manifest, "blob_bytes", manifest_path)
    if expected != len(blob):
        raise DataFormatError(
            f"{blob_path}: manifest declares {expected} blob bytes but file has {len(blob)}")
    return manifest, blob


def manifest_int(manifest: dict, field: str, source) -> int:
    """``manifest[field]`` if it is a JSON integer (no bool, no float), else DataFormatError."""
    return _manifest_value(manifest, field, source, (int,), "an integer")


def manifest_number(manifest: dict, field: str, source) -> int | float:
    """``manifest[field]`` if it is a JSON number (no bool), else DataFormatError."""
    return _manifest_value(manifest, field, source, (int, float), "a number")


def _manifest_value(manifest: dict, field: str, source, types: tuple, kind: str):
    if field not in manifest:
        raise DataFormatError(f"{source}: manifest field {field!r} is missing")
    value = manifest[field]
    if type(value) not in types:
        raise DataFormatError(f"{source}: manifest field {field!r} must be {kind}, "
                              f"got {type(value).__name__} {value!r}")
    return value


def floats_to_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype=F32).tobytes()


def ints_to_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype=I32).tobytes()


def floats_from_bytes(buf: bytes, count: int, offset: int = 0) -> np.ndarray:
    """Decode ``count`` float32 values starting at ``offset`` bytes, as float64."""
    arr = np.frombuffer(buf, dtype=F32, count=count, offset=offset)
    return arr.astype(np.float64)


def ints_from_bytes(buf: bytes, count: int, offset: int = 0) -> np.ndarray:
    arr = np.frombuffer(buf, dtype=I32, count=count, offset=offset)
    return arr.astype(np.int64)
