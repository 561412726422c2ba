"""Build script for the optional compiled kernel extension.

The package is fully functional without the extension (pure-Python kernels
are selected at import time), so the extension is optional: when it fails
to compile, setuptools warns and the build goes on without it.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("vedarith._ckernels", ["src/vedarith/_ckernels.c"], optional=True)
    ],
)
