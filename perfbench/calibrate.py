"""A fixed reference kernel that tracks the machine's speed.

The benchmark runs on a shared host whose speed drifts by up to ±20%
within tens of seconds, while a run lasts about twenty.  So one fixed
kernel, which does the three kinds of work the workloads do but without
jcmspl, is timed before every operation and after the last, and around
every set-up.  A time is then scaled by ``REFERENCE_S`` over the mean of
the kernel times on either side of it: seconds at the speed the host had
when the reference time was taken (one 2-core Intel Xeon, one BLAS
thread).

Over five seeds of 20-second runs the quartile spread of ``op_s`` was
0.023, 0.137 and 0.081 on small_cli, large_train and large_io with this
kernel, 0.040, 0.102 and 0.133 with a kernel of each workload's own kind
of work, and 0.166, 0.065 and 0.168 unscaled.
"""

from __future__ import annotations

import io
import time

import numpy as np

_rng = np.random.default_rng(12345)
_WIDE = _rng.standard_normal((128, 4000))
_SQUARE = _rng.standard_normal((50, 50))
_SPD = _SQUARE @ _SQUARE.T
_X = _rng.standard_normal((256, 8000))
_W = _rng.standard_normal((64, 256))
_C = _rng.standard_normal((64, 8000))
_TABLE = _rng.standard_normal((64, 400))

REFERENCE_S = 0.083


def _kernel() -> None:
    # small dense algebra, interpreter work and float formatting, like
    # the CLI round trip on the default synth
    for _ in range(3):
        _WIDE @ _WIDE.T
    for _ in range(20):
        np.linalg.eigh(_SPD)
    total = 0
    for i in range(100_000):
        total += i
    ",".join("%.17g" % v for v in _WIDE[0, :2000])
    # Gram and residual products over 8000 columns, like one iteration
    # of the large fit
    _X @ _X.T
    residual = _W @ _X - _C
    np.vdot(residual, residual)
    _C @ _X.T
    # a matrix formatted as CSV text and parsed back
    buf = io.StringIO()
    np.savetxt(buf, _TABLE, delimiter=",", fmt="%.17g")
    buf.seek(0)
    np.loadtxt(buf, delimiter=",")


def kernel_seconds() -> float:
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
