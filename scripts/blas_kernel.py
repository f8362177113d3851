"""Print the GEMM kernel that numpy's bundled OpenBLAS runs, and exit
non-zero unless it is EXPECTED. OpenBLAS picks the kernel by CPU at run
time unless OPENBLAS_CORETYPE forces one, so this shows whether a force
took. `kernel()` gives the name, and `environment()` the versions with
it, to other scripts and the tests.

usage: python scripts/blas_kernel.py [EXPECTED]
"""
import ctypes
import glob
import os
import platform
import sys

import numpy


def kernel() -> str | None:
    """The kernel's name, or None if numpy bundles no OpenBLAS that
    reports it (a numpy 1.x wheel's OpenBLAS has no such call)."""
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    if len(libs) != 1:
        return None
    corename = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_corename64_", None)
    if corename is None:
        return None
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def environment() -> dict:
    """What numpy computes with: the Python and numpy versions, the BLAS
    it was built against as "name version" (None if numpy does not say),
    and `kernel()`."""
    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    openblas = f"{blas['name']} {blas['version']}" if {"name", "version"} <= set(blas) else None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "openblas": openblas, "kernel": kernel()}


if __name__ == "__main__":
    name = kernel()
    print("OpenBLAS kernel:", name)
    if len(sys.argv) > 1 and name != sys.argv[1]:
        raise SystemExit(f"expected the {sys.argv[1]} kernel, not {name}")
