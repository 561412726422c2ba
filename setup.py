"""Build script for the optional compiled kernel extension.

The package is fully functional without the extension (pure-Python kernels
are selected at import time); the build therefore degrades gracefully when
no C toolchain is available.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Never let a failed extension build break the install."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # toolchain missing, etc.
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        import warnings

        warnings.warn(
            "vedarith: compiled kernels were not built (%s); "
            "falling back to the pure-Python kernels" % exc
        )


setup(
    ext_modules=[Extension("vedarith._ckernels", ["src/vedarith/_ckernels.c"])],
    cmdclass={"build_ext": optional_build_ext},
)
