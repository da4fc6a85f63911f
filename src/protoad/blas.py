"""The OpenBLAS thread count, read and set through the library numpy loaded.

``objective.score_ensemble`` runs a producer thread next to the encoder. On
two cores, OpenBLAS's own second thread would compete with the producer, so
the scorer holds OpenBLAS to one thread, process-wide, while it runs. The
library is looked up on first use, not at import; without one, the hold
does nothing.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from pathlib import Path

import numpy as np

# (getter, setter) symbol pairs; numpy's wheels ship scipy-openblas, whose
# symbols carry a suffix.
_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"))


@functools.lru_cache(maxsize=None)
def controls():
    """``(get, set)`` of the thread count of the OpenBLAS numpy loaded, or None."""
    for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                      .glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for get_name, set_name in _SYMBOLS:
            get, put = getattr(handle, get_name, None), getattr(handle, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


class _Hold:
    """The holds now on: the first saves the thread count, the last restores it."""

    def __init__(self):
        self.lock = threading.Lock()
        self.holders = 0
        self.saved = 0


_HOLD = _Hold()


@contextlib.contextmanager
def one_thread():
    """Hold OpenBLAS to one thread inside the block; restore the count on any exit.

    Nested and concurrent holds share one saved count, which comes back when
    the last of them ends.
    """
    found = controls()
    if found is None:
        yield
        return
    get, put = found
    with _HOLD.lock:
        if _HOLD.holders == 0:
            _HOLD.saved = get()
            put(1)
        _HOLD.holders += 1
    try:
        yield
    finally:
        with _HOLD.lock:
            _HOLD.holders -= 1
            if _HOLD.holders == 0:
                put(_HOLD.saved)
