"""Shared helpers: integer oracles, seeded operand streams, backend-aware
test sizing, and the compiled kernels."""

from __future__ import annotations

import importlib.util
import os
import shutil
import subprocess
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


def build_ckernels(cc: str, directory: Path, flags: list[str]) -> Path:
    """Build the shipped `_ckernels.c` into `directory` with `flags`; returns
    the path of the extension module."""
    source = Path(_pykernels.__file__).with_name("_ckernels.c")
    target = directory / ("_ckernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    paths = sysconfig.get_paths()
    includes = sorted({f"-I{paths['include']}", f"-I{paths['platinclude']}"})
    command = [cc, *flags, "-shared", "-fPIC", *includes, str(source)]
    subprocess.run([*command, "-o", str(target)], check=True)
    return target


def load_ckernels(target: Path):
    """A built compiled twin, loaded as a bare module from its path."""
    spec = importlib.util.spec_from_file_location("vedarith._ckernels", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The compiled twin, always built from the shipped `_ckernels.c` into
    a temporary directory, where any compiler warning (-Wall -Wextra, bar
    unused parameters) fails the build; an installed build is not used, so
    an edited source is always the one checked.  The build is loaded as a
    bare module and not registered as a backend, so the default backend
    does not change; a test that needs it as a backend registers it for
    itself."""
    strict = ["-Wall", "-Wextra", "-Wno-unused-parameter", "-Werror"]
    target = build_ckernels(
        c_compiler(), tmp_path_factory.mktemp("ckernels"), ["-O2", *strict]
    )
    return load_ckernels(target)
