"""The CPU budget of a fit: usable cores and the OpenBLAS thread count.

NumPy's matrix products run on the OpenBLAS it loaded, which starts one
thread per core.  Code that runs several of those products at once on
its own threads (the shard threads of :mod:`repro.exec.sharded`) would
otherwise oversubscribe the cores, so it lowers the BLAS thread count
for the span of its fan-out with :func:`blas_threads`.

The library is the one NumPy actually loaded, found through
``/proc/self/maps`` and opened with :mod:`ctypes` on first use, never at
import.  The thread count is process-wide, so the lock and the holder
count that guard it are module state too.  Where no OpenBLAS with a
thread-count setter is mapped (another BLAS, another OS), every call is
a no-op that reports ``None``.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Tuple

import numpy  # noqa: F401  (loads the OpenBLAS this module looks for)

from repro.common.exceptions import ValidationError

#: (setter, getter) symbol pairs, newest NumPy wheels first: the
#: ``scipy_openblas`` builds with 64- and 32-bit integers, then plain
#: OpenBLAS builds.
_SYMBOLS: Tuple[Tuple[str, str], ...] = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

_Handle = Tuple[Callable[[], int], Callable[[int], None]]

_UNLOADED = object()
_lock = threading.Lock()
_handle: object = _UNLOADED
_holders = 0
_original: Optional[int] = None


def available_cores() -> int:
    """Number of cores this process may run on.

    The affinity mask, not the machine: a process restricted to a cpuset
    sees only its own cores.  Falls back to ``os.cpu_count()`` where the
    mask is unavailable.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def _mapped_openblas() -> List[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            lines = maps.read().splitlines()
    except OSError:
        return []
    paths: List[str] = []
    for line in lines:
        fields = line.split(None, 5)
        if len(fields) < 6:
            continue
        path = fields[5].strip()
        if "openblas" in os.path.basename(path).lower() and path not in paths:
            paths.append(path)
    return paths


def _load() -> Optional[_Handle]:
    """The (getter, setter) of the mapped OpenBLAS's thread count, or None."""
    for path in _mapped_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for setter_name, getter_name in _SYMBOLS:
            setter = getattr(lib, setter_name, None)
            getter = getattr(lib, getter_name, None)
            if setter is None or getter is None:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter, setter
    return None


# repro: ignore[R007] — written only under _lock; the handle is per process
def _library() -> Optional[_Handle]:
    """The loaded handle, loading it on first use; call with ``_lock`` held."""
    global _handle
    if _handle is _UNLOADED:
        _handle = _load()
    return _handle  # type: ignore[return-value]


def get_blas_threads() -> Optional[int]:
    """The OpenBLAS thread count now, or ``None`` without a settable BLAS."""
    with _lock:
        handle = _library()
        return None if handle is None else handle[0]()


@contextmanager
# repro: ignore[R007] — the holder count and saved count change only under _lock
def blas_threads(n: int) -> Iterator[Optional[int]]:
    """Run the body with OpenBLAS at ``n`` threads; yield the count applied.

    Re-entrant and thread-safe: the first holder saves the count it
    found and sets ``n``; a holder that enters while others hold lowers
    the count to ``n`` but never raises it, so overlapping holders run
    at the smallest count any of them asked for.  The last holder to
    leave restores the saved count, in whatever order the holders leave
    and whether or not their bodies raise.  The yielded count is the one
    in force on entry; a later overlapping holder may lower it further.
    Without a settable BLAS the body runs unchanged and the context
    yields ``None``.
    """
    global _holders, _original
    if int(n) < 1:
        raise ValidationError(f"BLAS threads must be >= 1, got {n}")
    with _lock:
        handle = _library()
    if handle is None:
        yield None
        return
    getter, setter = handle
    with _lock:
        if _holders == 0:
            _original = getter()
            setter(int(n))
        elif int(n) < getter():
            setter(int(n))
        _holders += 1
        applied = getter()
    try:
        yield applied
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0:
                setter(_original)
                _original = None


__all__ = ["available_cores", "blas_threads", "get_blas_threads"]
