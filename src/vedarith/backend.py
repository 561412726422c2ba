"""Kernel backend selection.

The compiled extension is preferred when importable; the pure-Python twin
is the fallback, and `COMPILED_IMPORT_ERROR` keeps why the extension did
not import.  `VEDARITH_BACKEND=pure|compiled` pins the choice at import
time, and `use()` swaps it temporarily (handy for differential tests and
the backend-comparison benchmark).  The choice is a `ContextVar`, so it is
per context: a new thread starts on the import-time default, and an
asyncio task inherits the backend of the context that created it.
"""

from __future__ import annotations

import importlib
import os
from contextlib import contextmanager
from contextvars import ContextVar

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


_active = ContextVar("vedarith_backend", default=_initial())

# kernels() is the kernel module selected in the current context
kernels = _active.get


def active_name() -> str:
    return kernels().NAME


def available() -> dict:
    """All importable backends, keyed by name."""
    return dict(_BACKENDS)


@contextmanager
def use(name: str):
    """Switch the current context's backend for the block.  A thread started
    inside it starts on the import-time default; an asyncio task created
    inside it inherits the switch."""
    if name not in _BACKENDS:
        raise ValueError(f"unknown backend {name!r}")
    token = _active.set(_BACKENDS[name])
    try:
        yield _BACKENDS[name]
    finally:
        _active.reset(token)
