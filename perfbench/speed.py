"""Machine-speed reference for the timed metrics.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent over seconds to minutes.  A fixed pure-Python kernel (dict
and str work on a small table that stays in cache, no repro code and no
state shared with it) is timed every :attr:`Speedometer.EVERY_S`
seconds, interleaved with the measured work.  Times are then reported
scaled to a machine on which the kernel takes
:data:`NOMINAL_S`:

    reported = measured * NOMINAL_S / kernel_mean

so a faster program still reads faster, while a slow spell of the
machine, which slows the kernel alike, cancels out.

Every timed metric reads :data:`CLOCK`, the benchmark thread's CPU time,
not the wall clock.  The process is single-threaded and its measured loop
makes no blocking call, so on an idle machine the two agree; on a shared
virtual machine the CPU clock leaves out the time the hypervisor gives to
other guests (steal), which comes in bursts that stretched single
millisecond-long operations fourfold.  The raw values and
the scale are printed on the details line.
"""

from __future__ import annotations

import time
from typing import Callable, List

#: The clock of every timed metric (see the module docstring).
CLOCK: Callable[[], float] = time.thread_time

#: Kernel duration on the reference machine, seconds.
NOMINAL_S = 1.0e-3

def kernel() -> int:
    """Cache-resident interpreter work: a thousand-key dict and short
    strings.  It touches no memory the program uses, so a change in the
    program's own working set does not move it."""
    table: dict = {}
    for i in range(4000):
        key = (i * 7919) % 1000
        table[key] = table.get(key, 0) + len(str(i))
    return sum(table.values())


class Speedometer:
    """Samples the kernel at most once per :attr:`EVERY_S` wall seconds."""

    #: Sampling period: frequent enough to follow the machine's drift, at
    #: a cost of ~2% of the measured phase.
    EVERY_S = 0.05

    def __init__(self, clock: Callable[[], float] = CLOCK) -> None:
        self.clock = clock
        self.samples: List[float] = []
        #: Total seconds spent in the kernel, to take off measured spans.
        self.spent = 0.0
        self._due = 0.0

    def sample(self, count: int = 1) -> float:
        """Time ``count`` kernels now; returns the seconds they took."""
        spent = 0.0
        for _ in range(count):
            started = self.clock()
            kernel()
            took = self.clock() - started
            self.samples.append(took)
            spent += took
        self.spent += spent
        self._due = self.clock() + self.EVERY_S
        return spent

    def maybe_sample(self) -> float:
        """Sample if the period has passed; returns the seconds spent."""
        if self.clock() >= self._due:
            return self.sample()
        return 0.0

    def scale(self) -> float:
        """``NOMINAL_S`` over the kernel's trimmed mean (middle 80%)."""
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        kept = ordered[cut:len(ordered) - cut] or ordered
        return NOMINAL_S / (sum(kept) / len(kept))
