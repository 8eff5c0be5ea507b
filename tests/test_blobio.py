import json
from pathlib import Path

import numpy as np
import pytest

from tokmem.blobio import floats_buffer, read_pair, write_pair
from tokmem.errors import DataFormatError


def test_round_trip_leaves_only_the_pair(tmp_path):
    write_pair(tmp_path / "pair", {"n": 1}, b"old!")
    write_pair(tmp_path / "pair", {"n": 2}, b"new blob")
    manifest, blob = read_pair(tmp_path / "pair")
    assert manifest["n"] == 2 and blob == b"new blob"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pair.f32", "pair.json"]


def test_blob_is_written_from_an_array_buffer(tmp_path):
    """A blob may be any bytes-like object; the manifest records its byte
    length, not its length in elements or rows."""
    values = np.arange(6, dtype=np.float64).reshape(2, 3)
    write_pair(tmp_path / "rows", {}, np.asarray(values, dtype="<f4"))
    write_pair(tmp_path / "flat", {}, floats_buffer(values))
    for name in ("rows", "flat"):
        manifest, blob = read_pair(tmp_path / name)
        assert manifest["blob_bytes"] == 24
        assert blob == values.astype("<f4").tobytes()


def test_failed_manifest_write_keeps_previous_pair(tmp_path, monkeypatch):
    write_pair(tmp_path / "pair", {"n": 1}, b"old!")
    real_write = Path.write_bytes

    def failing_write(self, data):
        if self.name.startswith("pair.json"):
            raise OSError("no space left on device")
        return real_write(self, data)

    monkeypatch.setattr(Path, "write_bytes", failing_write)
    with pytest.raises(OSError, match="no space"):
        write_pair(tmp_path / "pair", {"n": 2}, b"new blob")
    monkeypatch.undo()
    manifest, blob = read_pair(tmp_path / "pair")
    assert manifest["n"] == 1 and blob == b"old!"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pair.f32", "pair.json"]


def test_directory_target_fails_before_any_rename(tmp_path):
    write_pair(tmp_path / "pair", {"n": 1}, b"old!")
    (tmp_path / "log").mkdir()
    with pytest.raises(IsADirectoryError, match="log"):
        write_pair(tmp_path / "pair", {"n": 2}, b"new blob",
                   with_files=[(tmp_path / "log", b"lines")])
    manifest, blob = read_pair(tmp_path / "pair")
    assert manifest["n"] == 1 and blob == b"old!"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log", "pair.f32", "pair.json"]


@pytest.mark.parametrize("field,value,message", [
    ("format_version", True, "format_version' must be an integer, got bool"),
    ("format_version", 1.0, "format_version' must be an integer, got float"),
    ("format_version", 2, "unsupported format_version 2"),
    ("blob_bytes", 4.0, "blob_bytes' must be an integer, got float"),
    ("blob_bytes", None, "blob_bytes' is missing"),
])
def test_manifest_fields_decoded_strictly(tmp_path, field, value, message):
    manifest_path, _ = write_pair(tmp_path / "pair", {}, b"blob")
    manifest = json.loads(manifest_path.read_text())
    if value is None:
        del manifest[field]
    else:
        manifest[field] = value
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(DataFormatError, match=message):
        read_pair(tmp_path / "pair")


def test_manifest_must_be_an_object(tmp_path):
    manifest_path, _ = write_pair(tmp_path / "pair", {}, b"blob")
    manifest_path.write_text("[]")
    with pytest.raises(DataFormatError, match="not a JSON object"):
        read_pair(tmp_path / "pair")
