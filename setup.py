"""Packaging for the FRAPP reproduction.

Kept as a classic ``setup.py`` (rather than PEP-621 metadata in
pyproject.toml) because the execution environment ships setuptools
without the ``wheel`` package, so PEP-517 editable installs (which
build a wheel) fail.  ``pip install -e . --no-build-isolation
--no-use-pep517`` takes the classic ``setup.py develop`` path;
pyproject.toml carries only tool configuration (pytest markers).

The native kernel extension (``repro._native_kernels``) is strictly
optional: a missing or failing compiler downgrades the build to a
pure-python install (the kernel layer then counts and samples with
its NumPy kernels) instead of aborting it.
"""

import platform
import sys

from setuptools import Extension, find_packages, setup
from setuptools.command.build_ext import build_ext


def _native_compile_args():
    """Per-platform flags for the optional native kernel extension."""
    if sys.platform == "win32":
        return ["/O2"]
    args = ["-O3", "-std=c99"]
    if platform.machine() in ("x86_64", "AMD64"):
        # POPCNT shipped with Nehalem (2008); every runner and any
        # plausible host has it, and it turns __builtin_popcountll
        # into the single-cycle instruction the kernels are built on.
        args.append("-mpopcnt")
    return args


class optional_build_ext(build_ext):
    """``build_ext`` that degrades to a pure-python install on failure.

    setuptools' own ``Extension(optional=True)`` only tolerates
    *compile* errors; a missing compiler binary raises earlier.  This
    hook catches everything, prints a notice, and lets the install
    proceed without the extension.
    """

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001 - any failure means "skip"
            self._skip(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001
            self._skip(exc)

    def _skip(self, exc):
        print(
            "WARNING: building repro._native_kernels failed "
            f"({exc!r}); installing pure-python (the NumPy kernels "
            "will run instead)",
            file=sys.stderr,
        )


NATIVE_EXTENSION = Extension(
    "repro._native_kernels",
    sources=["src/repro/_native_kernels.c"],
    extra_compile_args=_native_compile_args(),
    optional=True,
)

setup(
    name="frapp-repro",
    version="1.0.0",
    description=(
        "Reproduction of Agrawal & Haritsa (ICDE 2005): FRAPP, the "
        "gamma-diagonal perturbation framework for privacy-preserving mining"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    ext_modules=[NATIVE_EXTENSION],
    cmdclass={"build_ext": optional_build_ext},
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        "test": ["pytest", "hypothesis"],
        "cov": ["pytest-cov"],
        "docs": ["pdoc"],
    },
    entry_points={
        "console_scripts": ["frapp = repro.experiments.cli:main"],
    },
)
