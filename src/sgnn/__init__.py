"""Learned rigid-scene simulation with symmetry restricted to the subgroup
of orthogonal maps fixing the gravity direction."""

import ctypes

__version__ = "0.1.0"


def _keep_freed_memory() -> None:
    """Pin glibc's mmap and trim thresholds, so the megabytes of numpy
    temporaries a step frees stay in the heap for the next step instead of
    going back to the kernel and faulting in again.  Setting either switches
    off glibc's dynamic adjustment of the other, so both are set; 32 MiB is
    the largest mmap threshold glibc accepts on 64-bit.  Where ``mallopt`` is
    missing or refuses (macOS, Windows, musl), nothing changes."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(-3, 32 << 20):  # M_MMAP_THRESHOLD
        mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


_keep_freed_memory()
