"""Array serialization: bitwise round-trips and strict decode failures."""

import struct

import numpy as np
import pytest

from cotrain.errors import ConfigError, FormatError
from cotrain.rng import Rng
from cotrain.tensor_io import MAGIC, load_arrays, save_arrays


@pytest.fixture
def sample(tmp_path):
    rng = Rng(3, 0)
    arrays = {
        "weights": rng.normal((3, 4)).astype(np.float32),
        "bias": rng.normal((4,)).astype(np.float64),
        "scalar": np.array(2.5, dtype=np.float32),
        "étage.0/w": rng.normal((2, 2, 2)).astype(np.float32),
    }
    path = tmp_path / "arrays.mttn"
    save_arrays(path, arrays)
    return path, arrays


def test_roundtrip_bitwise(sample):
    path, arrays = sample
    loaded = load_arrays(path)
    assert list(loaded) == list(arrays)  # order preserved
    for name in arrays:
        assert loaded[name].dtype == arrays[name].dtype
        assert loaded[name].shape == arrays[name].shape
        assert loaded[name].tobytes() == arrays[name].tobytes()


def test_empty_mapping_roundtrips(tmp_path):
    path = tmp_path / "empty.mttn"
    save_arrays(path, {})
    assert load_arrays(path) == {}


def test_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(ConfigError):
        save_arrays(tmp_path / "x.mttn", {"ints": np.arange(3)})


def test_bad_magic(tmp_path):
    path = tmp_path / "x.mttn"
    path.write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(FormatError, match="offset 0"):
        load_arrays(path)


def test_bad_version(tmp_path):
    path = tmp_path / "x.mttn"
    path.write_bytes(MAGIC + struct.pack("<II", 9, 0))
    with pytest.raises(FormatError, match="offset 4"):
        load_arrays(path)


def test_unknown_dtype_tag(sample):
    path, _ = sample
    blob = bytearray(path.read_bytes())
    # first entry: magic(4) version(4) count(4) name_len(4) name("weights", 7) tag
    tag_offset = 4 + 4 + 4 + 4 + len(b"weights")
    blob[tag_offset] = 7
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=f"offset {tag_offset}"):
        load_arrays(path)


def test_truncation_detected(sample):
    path, _ = sample
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 5])
    with pytest.raises(FormatError, match="truncated"):
        load_arrays(path)


def test_trailing_garbage_detected(sample):
    path, _ = sample
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_arrays(path)


def test_invalid_utf8_name(tmp_path):
    path = tmp_path / "x.mttn"
    path.write_bytes(MAGIC + struct.pack("<II", 1, 1) + struct.pack("<I", 2) + b"\xff\xfe")
    with pytest.raises(FormatError, match="UTF-8"):
        load_arrays(path)


def test_no_partial_result_on_failure(sample):
    path, _ = sample
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    try:
        load_arrays(path)
    except FormatError as err:
        assert "byte offset" in str(err)
    else:
        pytest.fail("expected FormatError")
