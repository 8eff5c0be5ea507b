"""Manifest+blob file pairs, atomic file writes, and the JSON field decoder.

Every on-disk artifact (dataset, checkpoint) is a JSON manifest next to
a raw binary blob of little-endian float32 values; the manifest
records the blob's byte length so readers can detect truncation. Every
JSON file the package reads, config or manifest, goes through
:func:`read_json_object`, and every typed value in it through :func:`decode`.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import DataFormatError

FORMAT_VERSION = 1
PAIR_SUFFIXES = (".json", ".f32")  # the manifest's and the blob's, after the prefix

F32 = np.dtype("<f4")


def pair_paths(prefix: str | Path) -> tuple[Path, Path]:
    """Suffixes are appended, not substituted, so dotted prefixes stay intact."""
    manifest, blob = (Path(f"{prefix}{suffix}") for suffix in PAIR_SUFFIXES)
    return manifest, blob


def write_atomic(files) -> None:
    """Write each ``(path, data)`` of ``files`` to a temporary sibling, then
    rename the siblings over their targets one by one, in order. A failure
    before the first rename leaves every previous file and no temporary
    one; a target that is a directory raises IsADirectoryError before
    anything is written. A failed rename leaves the targets renamed before
    it already replaced, so the files are not replaced as one unit."""
    staged = [(path, path.with_name(path.name + ".tmp"), data) for path, data in files]
    for path, _, _ in staged:
        if path.is_dir():
            raise IsADirectoryError(f"{path} is a directory")
    try:
        for path, tmp, data in staged:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(data)
        for path, tmp, _ in staged:
            os.replace(tmp, path)
    finally:
        for _, tmp, _ in staged:
            tmp.unlink(missing_ok=True)


def write_pair(prefix: str | Path, manifest: dict, blob,
               with_files=()) -> tuple[Path, Path]:
    """Write ``<prefix>.json`` and ``<prefix>.f32``; returns both paths.
    ``blob`` is any bytes-like object, written from its own buffer with no
    copy (see :func:`floats_buffer`), and renamed into place before the
    manifest. ``with_files``, more
    ``(path, data)`` entries, are written by the same :func:`write_atomic`
    call after the pair: a failed write before any rename leaves the
    previous pair and files, but a failed rename of one of them leaves the
    new pair beside the previous file."""
    manifest = dict(manifest, format_version=FORMAT_VERSION, blob_bytes=memoryview(blob).nbytes)
    manifest_path, blob_path = pair_paths(prefix)
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    write_atomic([(blob_path, blob), (manifest_path, text.encode()), *with_files])
    return manifest_path, blob_path


def read_pair(prefix: str | Path) -> tuple[dict, bytes]:
    """Read a manifest+blob pair, validating version and blob length."""
    manifest_path, blob_path = pair_paths(prefix)
    if not manifest_path.exists():
        raise FileNotFoundError(f"missing manifest {manifest_path}")
    if not blob_path.exists():
        raise FileNotFoundError(f"missing blob {blob_path}")
    manifest = read_json_object(manifest_path, f"manifest {manifest_path}")
    version = manifest_field(manifest, "format_version", "int", manifest_path)
    if version != FORMAT_VERSION:
        raise DataFormatError(f"{manifest_path}: unsupported format_version {version}")
    blob = blob_path.read_bytes()
    expected = manifest_field(manifest, "blob_bytes", "int", manifest_path)
    if expected != len(blob):
        raise DataFormatError(
            f"{blob_path}: manifest declares {expected} blob bytes but file has {len(blob)}")
    return manifest, blob


def read_json_object(path: Path, what: str, error=DataFormatError) -> dict:
    """The JSON object in ``path``; ``error`` naming it ``what`` for invalid JSON,
    nesting too deep to parse, a key repeated in any object, or another root."""
    def unique_keys(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise error(f"{what} repeats key {key!r}")
            doc[key] = value
        return doc

    try:
        doc = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=unique_keys)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise error(f"{what} nests too deeply to parse") from None
    if not isinstance(doc, dict):
        raise error(f"{what} is not a JSON object")
    return doc


# field annotation -> the JSON types it accepts (a bool is no int here,
# though Python makes it one), how a message names them, and the value
# made from it
_JSON_TYPES = {"int": ((int,), "an integer", int),
              "float": ((int, float), "a finite number", float),
              "bool": ((bool,), "a boolean", bool),
              "Path": ((str,), "a string", Path)}


def decode(value, annotation: str, label: str, error=DataFormatError):
    """A parsed JSON ``value`` as a field of type ``annotation``; ``error``
    naming the field by ``label`` for another JSON type, and for a float
    field no finite float holds (inf, nan, an integer beyond the range)."""
    types, kind, convert = _JSON_TYPES[annotation]
    if type(value) not in types:
        raise error(f"{label} must be {kind}, got {type(value).__name__}")
    try:
        value = convert(value)
    except OverflowError:
        value = math.inf
    if annotation == "float" and not math.isfinite(value):
        raise error(f"{label} must be {kind}")
    return value


def manifest_field(manifest: dict, name: str, annotation: str, source):
    """``manifest[name]`` decoded as a field of type ``annotation``; a
    DataFormatError naming ``source`` and the field if missing or mistyped."""
    label = f"{source}: manifest field {name!r}"
    if name not in manifest:
        raise DataFormatError(f"{label} is missing")
    return decode(manifest[name], annotation, label)


def floats_buffer(arr: np.ndarray) -> memoryview:
    """The values of ``arr`` as little-endian float32 bytes: a flat view of
    its own buffer if it holds them already, C-ordered, else of one copy."""
    return memoryview(np.ascontiguousarray(arr, dtype=F32)).cast("B")


def floats_from_bytes(buf: bytes) -> np.ndarray:
    """Every float32 value of ``buf``, as a read-only float32 view of it."""
    return np.frombuffer(buf, dtype=F32)
