"""Host-speed calibration for the end-to-end timings.

The host the benchmark was developed on (2 vCPUs, Intel Xeon at 2.0 GHz)
is shared. For seconds to minutes at a time it runs the same Python code
about 2x slower, so a run's raw times say as much about the host's state
as about the program: across ten seeds, raw figures spread (IQR/median)
by up to 0.41.

The two vCPUs change state independently of each other, so the benchmark
first pins itself, and the set-up processes it starts, to one CPU
(``pin_to_one_cpu``). It then runs a fixed reference loop right before
and right after every interval it times, and scales the interval by
``REFERENCE_S / t_ref``, where ``t_ref`` is the mean of those two loop
times. The loop is the benchmark's own code, never the program's, so in
a given host state a change to the program moves scaled and raw figures
by the same ratio. A scaled time reads as the time the interval would
take on the development host in its fast state. The scaling is
approximate: the program does not slow by exactly the loop's factor. The run prints the scale factors it
applied, and the raw pass walls.
"""

from __future__ import annotations

import bisect
import math
import os
from time import perf_counter

import numpy as np

# The loop's time (mean of REPEATS) on the development host in its fast
# state; 2 vCPUs, Intel Xeon 2.0 GHz, Python 3.11.7, numpy 2.4.6.
REFERENCE_S = 3.2e-3
# A reading is the mean, not the best, of its repeats: when the host
# flickers between states the mean tracks the share of slow time.
REPEATS = 5

_ROW = np.linspace(-6.0, 0.0, 64)


def reference_loop() -> float:
    """Fixed work in the decoders' idiom: dict lookups, float math, small
    allocations and small numpy operations."""
    table: dict[tuple[int, int], float] = {}
    acc = 0.0
    for i in range(1000):
        key = (i % 17, i % 5)
        row = _ROW + (i % 7)
        acc += float(row.max()) - math.log1p(table.get(key, 0.0) ** 2)
        table[key] = acc * 1e-3
        acc += sum([acc, float(i), -acc]) * 1e-9
    return acc


def pin_to_one_cpu() -> int | None:
    """Pin this process (and the processes it starts) to its lowest allowed
    CPU, so the reference loop and the timed work share one CPU's state."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Speed:
    """Reference-loop readings over time, and the scale for an interval."""

    def __init__(self) -> None:
        self.at: list[float] = []  # perf_counter when each reading ended
        self.loop_s: list[float] = []

    def mark(self) -> None:
        t0 = perf_counter()
        for _ in range(REPEATS):
            reference_loop()
        t1 = perf_counter()
        self.at.append(t1)
        self.loop_s.append((t1 - t0) / REPEATS)

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean of the last reading before ``t0`` and
        the first one after ``t1``."""
        before = bisect.bisect_right(self.at, t0) - 1
        after = bisect.bisect_left(self.at, t1)
        readings = [self.loop_s[i] for i in (before, after) if 0 <= i < len(self.at)]
        if not readings:
            raise LookupError("no reference reading around the interval")
        return REFERENCE_S / (sum(readings) / len(readings))
