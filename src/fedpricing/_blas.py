"""Run a block of code with every loaded OpenBLAS pinned to one thread.

The simulator's matrices are small (a minibatch by the model), so a second
BLAS thread buys no wall time and only spins. The package loads only numpy's
OpenBLAS; a second pool appears only if a caller loads scipy, whose wheels
ship their own, and then both pools are pinned, since they would compete for
the same cores. The thread count is process-global state: it is set for the
length of the ``with`` block and restored afterwards, also on an exception.

Libraries are found in ``/proc/self/maps``; where that file does not exist,
or no OpenBLAS is loaded, the context does nothing. A library loaded inside
the block is not pinned, so callers import what they need first.
"""

from __future__ import annotations

import contextlib
import ctypes

# (getter, setter) symbol pairs, by build: numpy's 64-bit-integer wheels,
# scipy's wheels, and a plain system OpenBLAS with or without the 64_ suffix.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_MAPS = "/proc/self/maps"


def _openblas_paths() -> list:
    """Paths of the OpenBLAS libraries mapped into this process, sorted."""
    try:
        with open(_MAPS) as f:
            return sorted({line.split()[-1] for line in f
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        return []


def _pool(path: str):
    """The (get, set) thread-count functions of the library at ``path``, or None."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for get_name, set_name in _SYMBOLS:
        get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def pools() -> list:
    """(get, set) pairs of every loaded OpenBLAS that exposes its thread count."""
    return [p for p in map(_pool, _openblas_paths()) if p is not None]


@contextlib.contextmanager
def one_thread():
    """Set every loaded OpenBLAS to one thread; restore each count on exit."""
    saved = [(set_, get()) for get, set_ in pools()]
    try:
        for set_, _ in saved:
            set_(1)
        yield
    finally:
        for set_, count in saved:
            set_(count)
