"""Kernel backend selection.

The compiled extension is preferred when importable; the pure-Python twin
is the fallback, and `COMPILED_IMPORT_ERROR` keeps why the extension did
not import.  `VEDARITH_BACKEND=pure|compiled` pins the choice at import
time, and `use()` swaps it temporarily (handy for differential tests and
the backend-comparison benchmark).
"""

from __future__ import annotations

import importlib
import os
from contextlib import contextmanager

from . import _pykernels

try:
    _ckernels = importlib.import_module(f"{__package__}._ckernels")
except ImportError as exc:
    _ckernels, COMPILED_IMPORT_ERROR = None, str(exc)
else:
    COMPILED_IMPORT_ERROR = None

_BACKENDS = {"pure": _pykernels}
if _ckernels is not None:
    _BACKENDS["compiled"] = _ckernels


def _initial():
    forced = os.environ.get("VEDARITH_BACKEND")
    if forced:
        if forced not in _BACKENDS:
            raise ImportError(
                f"VEDARITH_BACKEND={forced!r} is not available "
                f"(have: {', '.join(sorted(_BACKENDS))})"
            )
        return _BACKENDS[forced]
    return _BACKENDS.get("compiled", _pykernels)


_active = _initial()


def kernels():
    """The currently selected kernel module."""
    return _active


def active_name() -> str:
    return _active.NAME


def available() -> dict:
    """All importable backends, keyed by name."""
    return dict(_BACKENDS)


@contextmanager
def use(name: str):
    """Temporarily switch the active backend.  Not safe to call while other
    threads are mid-operation; intended for tests and benchmarks."""
    global _active
    if name not in _BACKENDS:
        raise ValueError(f"unknown backend {name!r}")
    previous = _active
    _active = _BACKENDS[name]
    try:
        yield _active
    finally:
        _active = previous
