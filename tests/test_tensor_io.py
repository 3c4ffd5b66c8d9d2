"""Array serialization: bitwise round-trips and strict decode failures.

``_legacy_save``/``_legacy_load`` are frozen copies of the first
implementation, which built the file with ``tobytes`` and one joined buffer
and decoded it field by field.  The current writer and reader must give the
same bytes and the same arrays.
"""

import importlib.util
import os
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from cotrain import tensor_io
from cotrain.config import RunConfig
from cotrain.errors import ConfigError, FormatError
from cotrain.rng import Rng
from cotrain.tensor_io import MAGIC, Layout, load_arrays, save_arrays
from cotrain.trainer import save_checkpoint, train_steps

_TAG_BY_DTYPE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_DTYPE_BY_TAG = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def _legacy_save(path, arrays):
    chunks = [MAGIC, struct.pack("<II", 1, len(arrays))]
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if arr.ndim and not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        if arr.dtype not in _TAG_BY_DTYPE:
            raise ConfigError(f"cannot serialize dtype {arr.dtype} for entry '{name}'")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<BI", _TAG_BY_DTYPE[arr.dtype], arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())
    Path(path).write_bytes(b"".join(chunks))


def _legacy_load(path):
    blob = Path(path).read_bytes()
    pos = 0

    def take(n, what):
        nonlocal pos
        if pos + n > len(blob):
            raise FormatError(f"truncated while reading {what}", pos)
        pos += n
        return blob[pos - n : pos]

    magic = take(4, "magic")
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}", 0)
    version = struct.unpack("<I", take(4, "version"))[0]
    if version != 1:
        raise FormatError(f"unsupported format version {version}", 4)
    out = {}
    for _ in range(struct.unpack("<I", take(4, "entry count"))[0]):
        name_len = struct.unpack("<I", take(4, "name length"))[0]
        name_off = pos
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("entry name is not valid UTF-8", name_off) from None
        tag_off = pos
        tag = take(1, "dtype tag")[0]
        if tag not in _DTYPE_BY_TAG:
            raise FormatError(f"unknown dtype tag {tag}", tag_off)
        dtype = _DTYPE_BY_TAG[tag]
        rank = struct.unpack("<I", take(4, "rank"))[0]
        dims = struct.unpack(f"<{rank}Q", take(8 * rank, "dims"))
        n = 1
        for d in dims:
            n *= d
        raw = take(n * dtype.itemsize, f"data for '{name}'")
        arr = np.frombuffer(raw, dtype=dtype).reshape(dims)
        out[name] = arr.astype(arr.dtype.newbyteorder("="), copy=True)
    if pos != len(blob):
        raise FormatError("trailing bytes after final entry", pos)
    return out


def _assert_same_arrays(got, want):
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].shape == want[name].shape, name
        assert got[name].tobytes() == want[name].tobytes(), name


@pytest.fixture
def sample(tmp_path):
    rng = Rng(3, 0)
    arrays = {
        "weights": rng.normal((3, 4)).astype(np.float32),
        "bias": rng.normal((4,)).astype(np.float64),
        "scalar": np.array(2.5, dtype=np.float32),
        "étage.0/w": rng.normal((2, 2, 2)).astype(np.float32),
        "transposed": rng.normal((3, 5)).astype(np.float32).T,  # not C-contiguous
    }
    path = tmp_path / "arrays.mttn"
    save_arrays(path, arrays)
    return path, arrays


def test_roundtrip_bitwise(sample):
    path, arrays = sample
    _assert_same_arrays(load_arrays(path), arrays)  # order preserved


def test_sample_matches_the_legacy_format(sample, tmp_path):
    path, arrays = sample
    legacy = tmp_path / "legacy.mttn"
    _legacy_save(legacy, arrays)
    assert path.read_bytes() == legacy.read_bytes()
    _assert_same_arrays(load_arrays(path), _legacy_load(path))


def _load_workloads():
    """The benchmark's workload table, ``perfbench/workloads.py``."""
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["default_full", "many_heads_full"])
def test_checkpoints_match_the_legacy_format(workload, tmp_path):
    """A trained benchmark state gives the legacy bytes, and both readers agree on them."""
    workloads = _load_workloads()
    cfg = RunConfig.load(None, workloads.overrides_for(workloads.WORKLOADS[workload], 1))
    state = cfg.train_state()
    train_steps(state, 2)
    path, legacy = tmp_path / "checkpoint.mttn", tmp_path / "legacy.mttn"
    save_checkpoint(state, path)
    _legacy_save(legacy, {**state.model.state_arrays(), **state.opt.state_arrays()})
    assert path.read_bytes() == legacy.read_bytes()
    _assert_same_arrays(load_arrays(path), _legacy_load(legacy))


def _outcome(load, path):
    try:
        return load(path)
    except FormatError as err:
        return str(err)


def _load_through(layout):
    """``load_arrays`` with ``layout``, its matched payloads read back as arrays of the layout's shapes."""

    def load(path):
        got = load_arrays(path, layout)
        if isinstance(got, dict):
            return got
        return {
            name: np.frombuffer(payload, arr.dtype).reshape(arr.shape)
            for name, arr, payload in zip(layout.names, layout.arrays, got)
        }

    return load


def _assert_damage_like_the_legacy_reader(load, path, tmp_path, damage):
    blob = path.read_bytes()
    damaged = tmp_path / "damaged.mttn"
    for i in range(len(blob)):
        damaged.write_bytes(blob[:i] if damage == "truncate" else blob[:i] + b"\xff" + blob[i + 1 :])
        got, want = _outcome(load, damaged), _outcome(_legacy_load, damaged)
        if isinstance(want, str):
            assert got == want, i
        else:
            _assert_same_arrays(got, want)


@pytest.mark.parametrize("damage", ["truncate", "overwrite"])
def test_damaged_files_fail_like_the_legacy_reader(sample, tmp_path, damage):
    """Cut the file at every length, or set any one byte to 0xff: the same message and offset, or the same arrays."""
    path, _ = sample
    _assert_damage_like_the_legacy_reader(load_arrays, path, tmp_path, damage)


@pytest.mark.parametrize("damage", ["truncate", "overwrite"])
def test_damaged_files_through_a_layout_fail_like_the_legacy_reader(sample, tmp_path, damage):
    """The same damage, loaded with the file's layout: only payload bytes keep a match; every other file is parsed."""
    path, arrays = sample
    _assert_damage_like_the_legacy_reader(_load_through(Layout(arrays)), path, tmp_path, damage)


def test_a_layout_writes_the_general_writers_bytes_with_the_arrays_as_they_are_now(sample, tmp_path):
    path, arrays = sample
    layout = Layout(arrays)
    for arr in arrays.values():
        arr *= 3  # in place, the non-contiguous array too
    via_layout, general = tmp_path / "layout.mttn", tmp_path / "general.mttn"
    save_arrays(via_layout, layout)
    save_arrays(general, arrays)
    assert via_layout.read_bytes() == general.read_bytes()
    assert via_layout.stat().st_size == layout.size


def test_a_matching_file_fills_the_layouts_arrays(sample, tmp_path):
    path, arrays = sample
    arrays = {**arrays, "empty": np.zeros((0, 3), np.float32)}
    save_arrays(path, arrays)
    targets = {name: np.zeros_like(arr) for name, arr in arrays.items()}
    targets["transposed"] = np.zeros((3, 5), np.float32).T  # not C-contiguous
    layout = Layout(targets)
    payloads = load_arrays(path, layout)
    assert isinstance(payloads, list) and len(payloads) == len(arrays)
    layout.fill(payloads)
    _assert_same_arrays(targets, arrays)
    assert isinstance(load_arrays(path, Layout({"weights": arrays["weights"]})), dict)


def test_a_file_with_another_entry_count_is_parsed_without_packing_the_layout(sample, tmp_path):
    path, arrays = sample
    layout = Layout({**arrays, "extra": np.zeros(2, np.float32)})
    assert isinstance(load_arrays(path, layout), dict)
    assert "_packed" not in vars(layout)


def test_loaded_arrays_are_writable_native_and_independent_of_the_file(sample):
    path, arrays = sample
    loaded = load_arrays(path)
    path.unlink()
    for name, arr in loaded.items():
        assert arr.flags.writeable and arr.dtype.isnative
        arr[...] = 0
        assert not arr.any()
    assert np.array_equal(loaded["weights"], np.zeros((3, 4), np.float32))


def test_short_writes_resume(sample, tmp_path, monkeypatch):
    """The writer finishes a file whose ``writev`` calls each write at most a few bytes."""
    path, arrays = sample
    writev = os.writev
    calls = []

    def short_writev(fd, buffers):
        calls.append(len(buffers))
        head = b"".join(bytes(memoryview(b).cast("B")) for b in buffers)[:7]
        return writev(fd, [head])

    monkeypatch.setattr(tensor_io.os, "writev", short_writev)
    short = tmp_path / "short.mttn"
    save_arrays(short, arrays)
    assert short.read_bytes() == path.read_bytes()
    assert len(calls) == -(-len(path.read_bytes()) // 7)


def test_many_entries_span_several_writev_calls(tmp_path):
    arrays = {f"a{i}": np.full((i % 3,), i, dtype=np.float32) for i in range(1500)}
    path, legacy = tmp_path / "many.mttn", tmp_path / "legacy.mttn"
    save_arrays(path, arrays)
    _legacy_save(legacy, arrays)
    assert path.read_bytes() == legacy.read_bytes()
    _assert_same_arrays(load_arrays(path), arrays)


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
