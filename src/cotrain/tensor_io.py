"""Binary serialization for named float arrays.

File layout (all integers little-endian):

* magic ``MTTN`` (4 bytes), format version u32, entry count u32
* per entry: name length u32, UTF-8 name, dtype tag u8 (0 = float32,
  1 = float64), rank u32, one u64 per dimension, then the raw little-endian
  element bytes in row-major order.

Round-trips are bitwise exact.  Decoding is strict: a bad magic, version,
dtype tag, or truncated payload raises :class:`FormatError` carrying the byte
offset of the failure, and no partial result is returned.

:func:`save_arrays` writes each array from its own memory, and
:func:`load_arrays` reads the file with one call and parses it where it lies,
so neither makes an intermediate copy of the payload.

A :class:`Layout` is the file of one set of named arrays: the entry order
and the arrays, and, packed on first use and kept, every header's bytes
(packed by the same per-entry code as any save, so the two cannot differ),
each payload's offset and the exact file size.  Saving a layout again
packs nothing.  ``load_arrays(path, layout)`` first compares the file's
entry count with the layout's, so a file with other entries is parsed
without packing anything; otherwise it compares the file's size and every
header byte, the file header included, with the layout's, as one joined
string of header bytes.  On a match it returns each payload's bytes at its
known offset, for :meth:`Layout.fill`; the parser would have given the same
names, dtypes and shapes in the same order, so nothing is left to check.
On any difference, and always on a big-endian host, the file goes to the
parser, with the parser's errors, so a valid file in another order or with
other entries still loads.

:func:`commit` renames :func:`staged` files onto their targets, in order, so
that a set of files (a checkpoint's arrays, then its manifest) is replaced as
a whole.  A process that fails part-way leaves the targets as they were.
One that is killed part-way leaves the old set, the new set, or targets
without the last file (the commit point), never an old last file beside a
newer one; it can also leave staged files, and old files it had renamed
aside, under hidden names beside the targets.  No ``fsync`` is called, so a
power loss or an operating-system crash is not covered.
"""
from __future__ import annotations

import math
import os
import struct
import sys
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, FormatError

MAGIC = b"MTTN"
VERSION = 1

_TAG_BY_DTYPE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_DTYPE_BY_TAG = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_BIG_ENDIAN = sys.byteorder == "big"
_FILE_HEADER = struct.Struct("<4sII")
_U32 = struct.Struct("<I")
_TAG_RANK = struct.Struct("<BI")


@lru_cache(maxsize=16)
def _dims(rank: int) -> struct.Struct:
    return struct.Struct(f"<{rank}Q")


class _Packed(NamedTuple):
    headers: list[bytes]  # the file header, then each entry's header
    ends: list[int]  # where each header ends: the file header's length, then each payload's offset
    size: int


class Layout:
    """The file :func:`save_arrays` writes for one set of named arrays.

    It holds the entry names in order and the arrays themselves; every
    header's bytes (the file header, and each entry's as :func:`_entry`
    packs it for any save), each payload's offset and the exact file size
    are packed on first use and kept.  Each save writes the arrays'
    contents as they are then, so a layout stays valid while its arrays
    keep their dtypes and shapes.
    """

    def __init__(self, arrays: Mapping[str, np.ndarray]):
        self.names = list(arrays)
        self.arrays = [np.asarray(arr) for arr in arrays.values()]

    @cached_property
    def _packed(self) -> _Packed:
        headers = [_FILE_HEADER.pack(MAGIC, VERSION, len(self.arrays))]
        ends = [len(headers[0])]
        size = ends[0]
        for name, arr in zip(self.names, self.arrays):
            header = _entry(name, arr)
            headers.append(header)
            size += len(header)
            ends.append(size)
            size += arr.nbytes
        return _Packed(headers, ends, size)

    @property
    def size(self) -> int:
        """The exact size of the file."""
        return self._packed.size

    def chunks(self) -> list:
        """The buffers of the file, in order: the file header, then each entry's header and payload."""
        headers = self._packed.headers
        chunks = [headers[0]]
        for header, arr in zip(headers[1:], self.arrays):
            chunks += (header, _payload(arr))
        return chunks

    def matches(self, blob) -> bool:
        """Whether ``blob`` is this layout's file: the same size and every header byte equal.

        A file with another entry count is refused before anything is
        packed.  Always False on a big-endian host, whose arrays are not
        stored as the file's payloads are.
        """
        if _BIG_ENDIAN or len(blob) < _FILE_HEADER.size or _U32.unpack_from(blob, 8)[0] != len(self.arrays):
            return False
        headers, ends, size = self._packed
        if len(blob) != size:
            return False
        # Each header is the run of bytes that ends where its payload starts.
        return b"".join([blob[end - len(header) : end] for header, end in zip(headers, ends)]) == b"".join(headers)

    def payloads(self, blob) -> list[memoryview]:
        """Each entry's payload bytes in a matching ``blob``, as views of it, in this layout's order."""
        blob = memoryview(blob)
        return [blob[offset : offset + arr.nbytes] for arr, offset in zip(self.arrays, self._packed.ends[1:])]

    def fill(self, payloads: Sequence[memoryview]) -> None:
        """Copy the :meth:`payloads` of a matching file into this layout's arrays."""
        for arr, payload in zip(self.arrays, payloads):
            if arr.flags.c_contiguous and arr.size:
                memoryview(arr).cast("B")[:] = payload
            else:
                arr[...] = np.frombuffer(payload, arr.dtype).reshape(arr.shape)


def _entry(name: str, arr: np.ndarray) -> bytes:
    """One entry's header bytes."""
    if arr.dtype not in _TAG_BY_DTYPE:
        raise ConfigError(f"cannot serialize dtype {arr.dtype} for entry '{name}'")
    encoded = name.encode("utf-8")
    tag_rank = _TAG_RANK.pack(_TAG_BY_DTYPE[arr.dtype], arr.ndim)
    return _U32.pack(len(encoded)) + encoded + tag_rank + _dims(arr.ndim).pack(*arr.shape)


def _payload(arr: np.ndarray) -> np.ndarray:
    """The array as the file holds it: C-contiguous and little-endian."""
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)  # a 0-d array is always contiguous
    return arr.astype(arr.dtype.newbyteorder("<")) if _BIG_ENDIAN else arr


def save_arrays(path, arrays: Mapping[str, np.ndarray] | Layout) -> None:
    """Write named arrays, or a :class:`Layout`'s arrays; insertion order is preserved in the file.

    Each element is written from the array's own memory, with no copy of
    the payload (only a non-contiguous array is copied first).  The file at
    ``path`` is written in place; :func:`commit` replaces files atomically.
    """
    layout = arrays if isinstance(arrays, Layout) else Layout(arrays)
    _write_chunks(path, layout.chunks())


# Buffers per ``writev`` call: Linux's IOV_MAX.
_IOV_MAX = 1024


def _write_chunks(path, chunks: list) -> None:
    """Write the buffers in order through ``os.writev``, resuming after a short write.

    ``chunks`` itself is left as it was.  A many_heads_full checkpoint (732
    buffers, 3.3 MB) took 0.65 ms this way against 1.49 ms through a buffered
    file's ``writelines``, on a 2-core Xeon.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while chunks:
            written = os.writev(fd, chunks[:_IOV_MAX])
            done = 0
            while done < len(chunks) and written >= (size := memoryview(chunks[done]).nbytes):
                written -= size
                done += 1
            chunks = chunks[done:]
            if written:
                chunks[0] = memoryview(chunks[0]).cast("B")[written:]
    finally:
        os.close(fd)


def load_arrays(path, layout: Layout | None = None) -> dict[str, np.ndarray] | list[memoryview]:
    """Read a file written by :func:`save_arrays`, preserving entry order.

    The file is read once into one writable buffer.  If it is ``layout``'s
    file (:meth:`Layout.matches`), the entries' payload bytes are returned
    as a list in the layout's order, for :meth:`Layout.fill`.  Otherwise
    the file is parsed at a running offset and returned as a dict of arrays,
    with the parser's errors.  Either way the results are views of the
    buffer, so they share it and need not be aligned; copy one to own it
    alone.
    """
    with open(path, "rb") as fh:
        blob = memoryview(np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8))
        got = fh.readinto(blob)
    if got != len(blob):
        blob = blob[:got]
    if layout is not None and layout.matches(blob):
        return layout.payloads(blob)
    return _parse(blob)


def _parse(blob: memoryview) -> dict[str, np.ndarray]:
    size = len(blob)
    if size < 4:
        raise FormatError("truncated while reading magic", 0)
    if blob[:4] != MAGIC:
        raise FormatError(f"bad magic {bytes(blob[:4])!r}, expected {MAGIC!r}", 0)
    if size < 8:
        raise FormatError("truncated while reading version", 4)
    version = _U32.unpack_from(blob, 4)[0]
    if version != VERSION:
        raise FormatError(f"unsupported format version {version}", 4)
    if size < 12:
        raise FormatError("truncated while reading entry count", 8)
    count = _U32.unpack_from(blob, 8)[0]
    pos = 12
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        if pos + 4 > size:
            raise FormatError("truncated while reading name length", pos)
        name_len = _U32.unpack_from(blob, pos)[0]
        pos += 4
        if pos + name_len > size:
            raise FormatError("truncated while reading name", pos)
        try:
            name = str(blob[pos : pos + name_len], "utf-8")
        except UnicodeDecodeError:
            raise FormatError("entry name is not valid UTF-8", pos) from None
        pos += name_len
        if pos >= size:
            raise FormatError("truncated while reading dtype tag", pos)
        tag = blob[pos]
        if tag not in _DTYPE_BY_TAG:
            raise FormatError(f"unknown dtype tag {tag}", pos)
        dtype = _DTYPE_BY_TAG[tag]
        pos += 1
        if pos + 4 > size:
            raise FormatError("truncated while reading rank", pos)
        rank = _U32.unpack_from(blob, pos)[0]
        pos += 4
        if pos + 8 * rank > size:
            raise FormatError("truncated while reading dims", pos)
        dims = _dims(rank).unpack_from(blob, pos)
        pos += 8 * rank
        nbytes = math.prod(dims) * dtype.itemsize
        if pos + nbytes > size:
            raise FormatError(f"truncated while reading data for '{name}'", pos)
        arr = np.ndarray(dims, dtype, buffer=blob, offset=pos)
        out[name] = arr if dtype.isnative else arr.astype(dtype.newbyteorder("="))
        pos += nbytes
    if pos != size:
        raise FormatError("trailing bytes after final entry", pos)
    return out


def staged(path: Path) -> Path:
    """The temporary name beside ``path`` that a file for ``path`` is written under first."""
    return path.with_name(f".{path.name}.tmp")


def commit(targets: Sequence[Path]) -> None:
    """Rename each target's :func:`staged` file onto it, in order; the last target is the commit point.

    Targets that already exist are first renamed aside, the last one first,
    so an old commit point never stands beside a newer file.  If any rename
    fails, the new files are removed, the old ones are put back and the
    error is re-raised; the caller removes the staged files that remain.
    """
    aside: list[tuple[Path, Path]] = []
    placed: list[Path] = []
    try:
        for target in reversed(targets):
            if os.path.lexists(target):
                old = target.with_name(f".{target.name}.old")
                os.replace(target, old)
                aside.append((old, target))
        for target in targets:
            os.replace(staged(target), target)
            placed.append(target)
    except BaseException:
        for target in placed:
            target.unlink()
        for old, target in reversed(aside):
            os.replace(old, target)
        raise
    for old, _ in aside:
        old.unlink()
