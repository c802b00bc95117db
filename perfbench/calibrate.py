"""Host-speed calibration: a fixed kernel timed around every benchmark job.

The benchmark runs on shared hosts whose speed drifts: other tenants slow
every computation down by up to 40 %, in phases of a few seconds to minutes
that outlast a whole run, so no statistic over one run's jobs removes them.
Timing a fixed kernel just before and just after each job, and each set-up,
measures the host's speed at that moment.  The kernel uses none of
omegaflow's code, so a change to the program moves the job's time and never
the kernel's.

``normalize(dt, cal_s)`` scales a job's wall time to what it would have been
with the kernel at ``REFERENCE_S``, about its median time on the sizing
host (2 vCPU Xeon, Python 3.11.7, numpy 2.4.6).  Over 20 s windows on
that host, the median raw job time varied by 13-28 % (interquartile range
over median) and the normalized one by 3-7 %.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.005   # kernel time that normalized timings are scaled to
REPEATS = 3           # kernel timings on each side of a job

_GRID = np.linspace(0.0, 1.0, 256)


def kernel() -> float:
    """The mix the workloads spend their time in: interpreter-bound loops
    (small-n proximal steps, the network simplex), numpy calls on small
    arrays and dense O(n^2) array arithmetic."""
    acc = 0.0
    table = {}
    for i in range(20000):
        table[i & 255] = acc
        acc += (i % 7) * 0.5
    x = _GRID[::4].copy()
    for _ in range(300):
        x = np.sort(np.abs(x - x.mean())) + 1e-3
    dist = np.abs(_GRID[:, None] - _GRID[None, :])
    for _ in range(20):
        acc += float((dist * dist).sum(axis=1)[0])
    return acc + float(x[0])


def time_kernel(repeats: int = REPEATS) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return times


def normalize(dt: float, cal_s: float) -> float:
    """``dt`` scaled to the host speed at which the kernel takes REFERENCE_S."""
    return dt * REFERENCE_S / cal_s


def around(fn):
    """Run ``fn()``; return its result, its wall time and the median kernel
    time of the timings taken just before and just after it."""
    before = time_kernel()
    t0 = perf_counter()
    result = fn()
    dt = perf_counter() - t0
    return result, dt, statistics.median(before + time_kernel())
