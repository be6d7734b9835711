"""BLAS on one thread for the whole suite, as in perfbench/run.py: at tol
1e-10 a stalled theta solve's best gap depends on the BLAS thread count, so
without the pin those tests would depend on the host's cores.  pytest loads
this file before any test module imports numpy, which reads the variables
once, at its first import."""

import os

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
