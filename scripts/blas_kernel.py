"""Print the GEMM kernel that numpy's bundled OpenBLAS runs, and exit
non-zero unless it is EXPECTED. OpenBLAS picks the kernel by CPU at run
time unless OPENBLAS_CORETYPE forces one, so this shows whether a force
took.

usage: python scripts/blas_kernel.py [EXPECTED]
"""
import ctypes
import glob
import os
import sys

import numpy

lib, = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                              "numpy.libs", "*openblas*"))
corename = ctypes.CDLL(lib).scipy_openblas_get_corename64_
corename.argtypes, corename.restype = [], ctypes.c_char_p
name = corename().decode()
print("OpenBLAS kernel:", name)
if len(sys.argv) > 1 and name != sys.argv[1]:
    raise SystemExit(f"expected the {sys.argv[1]} kernel, not {name}")
