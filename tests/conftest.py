import os
import sys

# One BLAS thread, unless set already, before numpy loads: the Monte Carlo
# criteria run replications on a pool of processes, and each worker's spare
# OpenBLAS thread would spin on the CPUs the others need.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, os.path.dirname(__file__))
