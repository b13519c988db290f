"""Keep freed memory in the process, on glibc.

glibc serves a request of 128 KiB or more with a fresh mmap and gives it back
to the kernel on free, and it returns the top of the heap once more than
128 KiB of it is free. Both start out adaptive: freeing a mapped block
raises the thresholds towards it. The library's temporaries sit right at
those sizes (a 128-wide network's parameter and Adam vectors are ~130 KiB, a
128x128 gradient 128 KiB, a 512-row block of G's forward 512 KiB, and the
largest, a checkpoint's bytes, about 1 MB), so each training step or theory
check maps pages, touches them (one minor page fault per 4 KiB page) and
unmaps them again.

`keep_freed_memory` fixes both thresholds at the top of glibc's adaptive
range: blocks under 32 MiB come from the heap, and freed heap is kept until
more than 64 MiB of it sits free at the top. Both must be set: setting
either one turns the adaptive rule off for both, and a trim threshold alone
leaves blocks over 128 KiB on mmap. The values only decide where memory
comes from, never what is computed. `import divgan` calls it once; off
glibc it does nothing.
"""

from __future__ import annotations

import ctypes
import os

__all__ = ["MMAP_THRESHOLD", "TRIM_THRESHOLD", "keep_freed_memory"]

# mallopt parameter numbers from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

MMAP_THRESHOLD = 32 * 2**20  # glibc's largest mmap threshold on 64-bit
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD  # where glibc's adaptive rule puts it


def _is_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return False


def keep_freed_memory() -> bool:
    """Set glibc's mmap and trim thresholds; True if both took. Off glibc, or
    where the C library has no `mallopt`, it does nothing and returns False."""
    if not _is_glibc():
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    took_mmap = mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
    took_trim = mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
    return took_mmap and took_trim
