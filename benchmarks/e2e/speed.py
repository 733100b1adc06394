"""Host-speed normalisation: compute time in reference-host seconds.

The reference host is a shared 2-vCPU VM whose speed changes by up to
2.3x for tens of seconds to minutes at a time with its neighbours' load.
The guest sees no steal time and CPU time grows with wall time, so no
clock hides the change, and no run is long enough to average it out.

A fixed calibration kernel — plain Python and a few small numpy calls,
none of this repository's code — is timed between the timed blocks of a
run, never while program code runs.  ``slowness`` is the kernel's time
around a moment over :data:`REFERENCE_KERNEL_S`, its time on the
reference host in quiet periods.  The benchmark's workloads slow down
less than the tight kernel does: by the slowness to the power
:data:`SENSITIVITY`.  A block's compute time divided by that factor is
what the block would have taken on the quiet reference host; a rate is
multiplied by it.  A program change cannot move the kernel, so it moves
the scaled value as it would move the raw one on a quiet host.  Time
spent waiting on a wall clock (a batch window, the next arrival) is not
compute and is never scaled.

Every raw value stays in the run's ``DETAIL`` line next to its scaled
value.  :data:`REFERENCE_KERNEL_S` fixes the unit of every scaled
metric and must never change; on another machine the scaled values
differ from the reference host's by a constant factor, so runs on one
machine still compare.
"""

from __future__ import annotations

import gc
import time
from array import array
from bisect import bisect_left
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: CPU seconds one :func:`kernel` call takes on the reference host
#: (Intel Xeon, 2 vCPUs, Python 3.11) in quiet periods.  Frozen: it is
#: the unit.
REFERENCE_KERNEL_S = 1.25e-4
#: log(block rate) against log(slowness) within runs that crossed the
#: host's quiet and busy spells has slope -0.60 to -0.78 (serve-zipf
#: flood, monitor-ingest chunks, cluster-sim blocks); with 0.75 a
#: cluster-sim block's scaled rate is the same in quiet and busy
#: stretches (README, "Host speed").
SENSITIVITY = 0.75
#: A moment's slowness is the median of this many neighbouring samples,
#: so one sample hit by an interrupt or a collection does not move it.
SMOOTH = 9

_VECTOR = np.linspace(0.0, 1.0, 16)


def kernel() -> int:
    """Fixed work shaped like the benchmark's: dict and list updates,
    small-object allocation, a sort and a few small numpy calls."""
    table = {}
    items = []
    total = 0
    for i in range(320):
        key = i & 31
        table[key] = table.get(key, 0) + i
        items.append((key, -i))
        total += len(str(i))
    items.sort()
    vector = _VECTOR
    for __ in range(8):
        vector = np.sqrt(vector * vector + 1.0)
    return total + len(items) + int(vector[0])


class HostSpeed:
    """Calibration samples taken through one run, and the slowness they
    give at any moment of it."""

    def __init__(self) -> None:
        self.stamps = array("d")
        self.seconds = array("d")
        self._smoothed: List[float] = []

    def sample(self, count: int = 1) -> None:
        """Time the kernel ``count`` times.

        Each timed call follows an untimed one, with the collector off,
        so neither the caches the program just filled nor a collection
        of the program's objects lands in the sample.  The kernel is
        timed by this thread's CPU clock: a pool's queue feeder thread
        holding the interpreter lock, or another process on this CPU,
        delays the kernel without slowing the host, while a slow host
        stretches CPU time too (the guest sees no steal time).
        """
        pc, cpu = time.perf_counter, time.thread_time
        collecting = gc.isenabled()
        gc.disable()
        try:
            for __ in range(count):
                stamp = pc()
                kernel()
                start = cpu()
                kernel()
                self.seconds.append(cpu() - start)
                self.stamps.append(stamp)
        finally:
            if collecting:
                gc.enable()
        self._smoothed = []

    def slowness_at(self, moment: float) -> float:
        """Kernel time around ``moment`` over the reference kernel time;
        1.0 when no sample was taken."""
        if not self.stamps:
            return 1.0
        if not self._smoothed:
            half = SMOOTH // 2
            seconds = self.seconds
            self._smoothed = [
                float(np.median(seconds[max(0, i - half) : i + half + 1]))
                for i in range(len(seconds))
            ]
        index = min(bisect_left(self.stamps, moment), len(self.stamps) - 1)
        if index > 0 and moment - self.stamps[index - 1] < self.stamps[index] - moment:
            index -= 1
        return self._smoothed[index] / REFERENCE_KERNEL_S

    def median_slowness(self) -> float:
        if not self.seconds:
            return 1.0
        return float(np.median(self.seconds)) / REFERENCE_KERNEL_S

    def reference_seconds(self, seconds: float, moment: float, idle: float = 0.0) -> float:
        """``seconds`` of wall time around ``moment`` in reference-host
        seconds: the ``idle`` part, spent waiting on a wall clock, stays
        as it is; the rest is compute, divided by the slowness to the
        power :data:`SENSITIVITY`."""
        return idle + (seconds - idle) / self.slowness_at(moment) ** SENSITIVITY

    def block_rate(self, blocks: Iterable[Tuple[float, float, int, float]]) -> float:
        """Median over ``(start, end, count, idle seconds)`` blocks of the
        count per reference-host second."""
        rates = [
            count / self.reference_seconds(end - start, (start + end) / 2, idle)
            for start, end, count, idle in blocks
            if end > start
        ]
        return float(np.median(rates)) if rates else 0.0

    def scaled(
        self,
        seconds: Sequence[float],
        moments: Sequence[float],
        idle: Optional[Sequence[float]] = None,
    ) -> List[float]:
        """:meth:`reference_seconds` of each duration at its moment."""
        idle = idle if idle is not None else [0.0] * len(seconds)
        return [self.reference_seconds(s, m, i) for s, m, i in zip(seconds, moments, idle)]
