"""Fixed kernels that measure the host's speed; none of them calls the program.

The host's speed drifts by up to ~50% over minutes, and not alike for all
work: interpreter loops and numpy streaming over a megabyte each drift on
their own at times.  Each workload names the kernels that match its work
(``CALIBRATION`` in ``workloads.py``); the run times them after every
operation, and reports times multiplied by ``host_factor``: the mean over
its kernels of reference time / median kernel time of the run.  A faster
program moves the reported times; a faster host does not.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np


@functools.cache
def _numpy_arrays():
    x = np.random.default_rng(0).standard_normal((1 << 14, 8))
    return x, np.empty_like(x)


def _numpy_kernel():
    x, buf = _numpy_arrays()
    np.cumsum(x, axis=0, out=buf)
    np.abs(buf, out=buf).sum()


def _python_kernel():
    s = 0.0
    for i in range(1, 20_000):
        s += 1.0 / i


#: The kernels, with their time at the reference host speed.
KERNELS = {"numpy": (_numpy_kernel, 0.65e-3), "python": (_python_kernel, 1.5e-3)}


def calibrate(kind: str) -> float:
    """One timing of the named kernel."""
    kernel = KERNELS[kind][0]
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def host_factor(samples: dict) -> float:
    """Reference speed over the run's speed; below 1 when the host ran slow."""
    return statistics.fmean(KERNELS[k][1] / statistics.median(v) for k, v in samples.items())
