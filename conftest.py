"""Repo-wide test setup: pin BLAS to one thread before numpy is imported.

pytest loads this file before ``tests/`` and ``benchmarks/`` conftests and
before any test module, so numpy's BLAS reads these variables at its first
import.  One thread keeps a GEMM's summation order independent of the
host's core count and takes BLAS thread scheduling out of the wall-clock
gates (perfbench pins the same way).  ``setdefault`` leaves an explicit
setting in the environment alone.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
