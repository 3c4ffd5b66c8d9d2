"""Settings of the C library's allocator, shared by the CLI and the tensor pool."""
from __future__ import annotations

import ctypes
import os
import sys
from typing import Sequence


def mallopt(settings: Sequence[tuple[str, int, int]]) -> None:
    """Apply ``(name, param, value)`` triples with glibc's ``mallopt``.

    ``param`` is the number malloc.h gives ``name``.  A setting glibc refuses
    prints one warning line and leaves glibc's default in place.  Other C
    libraries are left alone.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
        return
    libc = ctypes.CDLL(None)
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    for name, param, value in settings:
        if libc.mallopt(param, value) != 1:
            print(f"warning: mallopt({name}, {value}) failed; glibc's default applies", file=sys.stderr)
