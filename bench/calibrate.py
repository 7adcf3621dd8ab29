"""Machine-pace calibration.

The benchmark runs on shared machines whose speed for identical work drifts
by tens of percent over tens of seconds.  A fixed kernel, written here and
independent of the package, is timed next to every measured repetition;
dividing a repetition's time by the kernel's time measured around it cancels
that drift.  The kernel mixes the kinds of work the workloads do: a Python
loop over small numpy calls, a reduction over a medium array, and float
formatting written to a file.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np

#: Typical kernel time on the machine the benchmark was tuned on (2 vCPU
#: Intel Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6), so calibrated times
#: read as seconds on that machine at its typical pace.
REFERENCE_S = 0.3


def kernel() -> float:
    """Time one pass of the calibration kernel, in seconds."""
    rng = np.random.default_rng(0)
    small = rng.random((4, 3))
    other = small[::-1].copy()
    big = rng.random((120, 120, 20))
    start = perf_counter()
    acc = 0.0
    for _ in range(48000):
        acc += float(np.minimum(small, other).sum())
    for _ in range(48):
        acc += float(np.where(big > 0.5, big, np.inf).min(axis=1).sum())
    with open(os.devnull, "w") as sink:
        for v in big.ravel()[:60000].tolist():
            sink.write(f"{v!r},{acc!r}\n")
    return perf_counter() - start
