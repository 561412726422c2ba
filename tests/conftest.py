"""Shared helpers: integer oracles, seeded operand streams, backend-aware
test sizing, and the compiled kernels."""

from __future__ import annotations

import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest
from hypothesis import settings

from vedarith import _pykernels, backend, numeral
from vedarith.numeral import Base
from vedarith.randgen import Lcg64

ALL_BASES = (Base.BIN, Base.QUAT, Base.DEC, Base.HEX, Base.BYTE)

# every run draws the same examples, and no failure saved by an earlier run
# is replayed: a Tier-1 result depends only on the code under test
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


def nat(value: int, base: Base = Base.HEX):
    return numeral.from_int(value, base)


def val(x) -> int:
    return numeral.to_int(x)


def scaled(full: int, reduced: int) -> int:
    """Full iteration counts on the compiled kernels, reduced on pure."""
    return full if backend.active_name() == "compiled" else reduced


def repeated_subtraction_divmod(x: int, y: int) -> tuple[int, int]:
    # the ground-floor division oracle; only usable for small quotients
    q, r = 0, x
    while r >= y:
        r -= y
        q += 1
    return q, r


def random_value(rng: Lcg64, max_digits: int, base: Base) -> int:
    ndigits = rng.below(max_digits + 1)
    v = 0
    for _ in range(ndigits):
        v = v * int(base) + rng.below(int(base))
    return v


@pytest.fixture(scope="session")
def toy_keypair():
    from vedarith import rsa

    return rsa.keygen(nat(61), nat(53), nat(17))


def package_env(**extra: str) -> dict:
    """Environment for a child interpreter that imports this checkout's
    package."""
    src = str(Path(_pykernels.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **extra)


def c_compiler() -> str:
    """The C compiler the compiled twin is built with; skips without one."""
    cc = shutil.which("gcc") or shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler to build the compiled kernels")
    return cc


def setup_build_ext(directory: Path, cc: str, cflags: list[str]):
    """Run `setup.py build_ext` from the checkout's root with compiler `cc`
    and `cflags` added to the install's own; out of tree, never in place,
    so the default backend of later tests stays as it was.  Returns the
    finished process and the path of the extension module it would build."""
    root = Path(_pykernels.__file__).parents[2]
    command = [sys.executable, "setup.py", "build_ext"]
    command += ["--build-lib", str(directory), "--build-temp", str(directory / "tmp")]
    env = dict(os.environ, CC=cc, CFLAGS=" ".join(cflags))
    done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True)
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    return done, directory / "vedarith" / ("_ckernels" + suffix)


def build_ckernels(directory: Path, cflags: list[str]) -> Path:
    """Build the shipped `_ckernels.c` as an install does, through
    `setup.py build_ext`, into `directory`; returns the path of the
    extension module.  The extension is optional, so a failed compile
    exits 0 with only a warning: a non-zero exit or a missing module fails
    the calling test, never skips it, and shows setuptools' stderr."""
    done, target = setup_build_ext(directory, c_compiler(), cflags)
    if done.returncode != 0 or not target.exists():
        message = f"setup.py build_ext built no {target.name}:\n{done.stderr}"
        pytest.fail(message, pytrace=False)
    return target


def load_ckernels(target: Path):
    """A built compiled twin, loaded as a bare module from its path.  Loading
    an extension registers it in `sys.modules`, so the entry it replaced is
    put back: code that looks the package's kernels up there (perfbench's
    tracer) still finds the twin `backend` imported."""
    name = "vedarith._ckernels"
    previous = sys.modules.get(name)
    spec = importlib.util.spec_from_file_location(name, target)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        if previous is None:
            sys.modules.pop(name, None)
        else:
            sys.modules[name] = previous
    return module


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The compiled twin, built from the shipped `_ckernels.c` through
    `setup.py build_ext` with the install's own flags plus -Wall -Wextra
    -Werror (bar unused parameters), so any compiler warning fails every
    test that uses it; an installed build is not used, so an edited source
    is always the one checked.  The build goes to a temporary directory and
    is loaded as a bare module, not registered as a backend, so the default
    backend does not change; a test that needs it as a backend registers it
    for itself."""
    strict = ["-Wall", "-Wextra", "-Wno-unused-parameter", "-Werror"]
    module = load_ckernels(build_ckernels(tmp_path_factory.mktemp("ckernels"), strict))
    assert module.NAME == "compiled"
    return module
