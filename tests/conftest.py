"""Test-session settings.

jcmspl's matrix products are small, so a BLAS worker thread gains little
and, on a host whose cores are busy, makes each call wait for a core:
the timing test in ``test_acceptance.py`` then reads noise.  One BLAS
thread is pinned here, before numpy is first imported, as
``perfbench/run.py`` pins it for the benchmark.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
