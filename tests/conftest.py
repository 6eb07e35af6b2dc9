"""Pin BLAS and OpenMP to one thread before numpy loads.

Record bytes depend on the BLAS thread count (its summation order changes),
so serial runs and process-pool runs must use the same count; one thread also
keeps pool workers from oversubscribing the CPUs. An environment that sets
these variables itself keeps its values.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
