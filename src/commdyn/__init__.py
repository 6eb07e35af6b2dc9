"""Community detection from equilibria of saturating opinion dynamics on
two-community stochastic block models. Import names from their modules, as in
`from commdyn.harness import build_config`.

Importing the package pins BLAS and OpenMP to one thread before any commdyn
module loads numpy, unless the environment already sets these variables.
Record bytes depend on the BLAS thread count (its summation order changes),
so the CLI, library runs and pool workers must use the same count; one thread
also keeps pool workers from oversubscribing the CPUs.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
