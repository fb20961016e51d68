"""The OpenBLAS that numpy loaded, reached through ctypes: its thread count
and the name of the kernel set it chose for this CPU.

Where numpy carries no OpenBLAS with these symbols (MKL, Accelerate, a
build against a system BLAS), the count and the name are unknown and
nothing is changed.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os

import numpy as np

#: (prefix, suffix) of OpenBLAS's symbol names: scipy-openblas's, then the
#: 64-bit-index and the plain builds'
_NAMINGS = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))


@functools.cache
def _symbols() -> dict | None:
    """numpy's OpenBLAS functions ``get_num_threads``, ``set_num_threads``
    and ``get_corename`` (None if absent) by their plain names, or None
    where no such library is found.  Looked up once per process."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            handle = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _NAMINGS:
            found = {name: getattr(handle, prefix + name + suffix, None)
                     for name in ("get_num_threads", "set_num_threads", "get_corename")}
            if found["get_num_threads"] and found["set_num_threads"]:
                for name, args, result in [("get_num_threads", [], ctypes.c_int),
                                           ("set_num_threads", [ctypes.c_int], None),
                                           ("get_corename", [], ctypes.c_char_p)]:
                    if found[name]:
                        found[name].argtypes, found[name].restype = args, result
                return found
    return None


def threads() -> int | None:
    """The number of threads OpenBLAS runs a call on, None if unknown."""
    found = _symbols()
    return None if found is None else int(found["get_num_threads"]())


def set_threads(count: int) -> None:
    """Run later OpenBLAS calls on ``count`` threads; a no-op if unknown."""
    found = _symbols()
    if found is not None:
        found["set_num_threads"](count)


def corename() -> str:
    """The kernel set OpenBLAS chose for this CPU, such as ``SkylakeX``."""
    found = _symbols()
    if found is None or found["get_corename"] is None:
        return "unknown"
    return found["get_corename"]().decode("ascii", "replace")


@contextlib.contextmanager
def single_threaded():
    """Run the block on one OpenBLAS thread and restore the caller's count
    after it, also when it raises; yields the count the block runs at.

    A count the user set in ``OPENBLAS_NUM_THREADS`` holds as set, and an
    unknown one is left alone.  The simulator's arrays are at most a few
    thousand by a few dozen, where a second BLAS thread does not pay and
    competes with the gap worker for the cores.
    """
    before = threads()
    if before is None or "OPENBLAS_NUM_THREADS" in os.environ:
        yield before
        return
    set_threads(1)
    try:
        yield 1
    finally:
        set_threads(before)
