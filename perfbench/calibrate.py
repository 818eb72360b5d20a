"""Host-speed reference: a fixed piece of work timed next to every op.

The benchmark's host is shared, and the same cold GNMT analysis was
measured at anywhere from 1.9 s to 3.9 s within two minutes, with CPU
time tracking wall time (so the slowdown is the processor, not
preemption).  Medians over one run cannot remove a slowdown that lasts
longer than the run.  So every timed interval is also scaled to a
nominal host speed:

    normalized_s = measured_s * NOMINAL_REF_S / ref_s

where ``ref_s`` is the mean of :func:`reference_s` taken right before
and right after the interval, in the process that ran it.  The
reference uses none of the program's
code — plain Python dict and tuple work, small numpy kernels and one
memory-bound array pass, the same mix the simulator runs — so a change
to the program cannot move it.  Raw seconds are printed beside every
normalized figure.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median :func:`reference_s` on a quiet 2-vCPU Xeon host; normalized
#: seconds read as seconds on that host.
NOMINAL_REF_S = 0.030
REPEATS = 5


def _work() -> float:
    acc = 0.0
    table: dict[tuple[int, int], int] = {}
    for i in range(36000):
        key = (i % 97, i & 15)
        table[key] = table.get(key, 0) + i
        acc += len(table)
    rng = np.random.default_rng(12345)
    for _ in range(360):
        column = rng.random(2048)
        acc += float(np.cumsum(column)[-1] + np.sort(column)[7])
    big = np.arange(1 << 19, dtype=np.float64)
    for _ in range(18):
        big = big * 1.0000001 + 0.5
    return acc + float(big[-1])


def reference_s() -> float:
    """Median seconds of :data:`REPEATS` runs of the fixed reference."""
    times = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        _work()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def factor(before_s: float, after_s: float) -> float:
    """Scale from this host's current speed to the nominal speed."""
    return NOMINAL_REF_S / ((before_s + after_s) / 2.0)
