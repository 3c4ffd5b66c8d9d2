"""Binary serialization for named float arrays.

File layout (all integers little-endian):

* magic ``MTTN`` (4 bytes), format version u32, entry count u32
* per entry: name length u32, UTF-8 name, dtype tag u8 (0 = float32,
  1 = float64), rank u32, one u64 per dimension, then the raw little-endian
  element bytes in row-major order.

Round-trips are bitwise exact.  Decoding is strict: a bad magic, version,
dtype tag, or truncated payload raises :class:`FormatError` carrying the byte
offset of the failure, and no partial result is returned.
"""
from __future__ import annotations

import struct
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ConfigError, FormatError

MAGIC = b"MTTN"
VERSION = 1

_TAG_BY_DTYPE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_DTYPE_BY_TAG = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def save_arrays(path, arrays: Mapping[str, np.ndarray]) -> None:
    """Write named arrays; insertion order is preserved in the file."""
    chunks = [MAGIC, struct.pack("<II", VERSION, len(arrays))]
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if arr.ndim and not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)  # would promote 0-d to 1-d
        if arr.dtype not in _TAG_BY_DTYPE:
            raise ConfigError(f"cannot serialize dtype {arr.dtype} for entry '{name}'")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<BI", _TAG_BY_DTYPE[arr.dtype], arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())
    Path(path).write_bytes(b"".join(chunks))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise FormatError(f"truncated while reading {what}", self.pos)
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]


def load_arrays(path) -> dict[str, np.ndarray]:
    """Read a file written by :func:`save_arrays`, preserving entry order."""
    blob = Path(path).read_bytes()
    r = _Reader(blob)
    magic = r.take(4, "magic")
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}", 0)
    version = r.u32("version")
    if version != VERSION:
        raise FormatError(f"unsupported format version {version}", 4)
    count = r.u32("entry count")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_len = r.u32("name length")
        name_off = r.pos
        try:
            name = r.take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("entry name is not valid UTF-8", name_off) from None
        tag_off = r.pos
        tag = r.u8("dtype tag")
        if tag not in _DTYPE_BY_TAG:
            raise FormatError(f"unknown dtype tag {tag}", tag_off)
        dtype = _DTYPE_BY_TAG[tag]
        rank = r.u32("rank")
        dims = struct.unpack(f"<{rank}Q", r.take(8 * rank, "dims"))
        n = 1
        for d in dims:
            n *= d
        raw = r.take(n * dtype.itemsize, f"data for '{name}'")
        arr = np.frombuffer(raw, dtype=dtype).reshape(dims)
        out[name] = arr.astype(arr.dtype.newbyteorder("="), copy=True)
    if r.pos != len(blob):
        raise FormatError("trailing bytes after final entry", r.pos)
    return out

