"""The machine's speed, sampled all through a run, to scale host times.

On a shared VM the same pure-Python code runs up to 1.5x slower in
spells of a fraction of a second to tens of seconds, because of other
tenants.  A fixed reference kernel
(:func:`kernel`, integer arithmetic only: no allocation the program's
garbage could slow down, nothing the program under test can change) is
timed again and again while the run goes on.  The mean kernel time (the
top and bottom tenth of samples dropped) over ``REFERENCE_S`` is the
kernel's slowdown; raised to ``EXPONENT`` it estimates the program's,
and every host time the benchmark reports is divided by that: "seconds
at the reference speed".  The slow spells come and go within a second,
so the samples must be dense: a mean over samples spread evenly in time
is the average slowdown the program suffered.

Samples come from a ``SIGALRM`` interval timer, every ``PERIOD`` s
(about 1.5% of the run), in the thread that runs the program.  The time
spent in samples is tracked: :meth:`SpeedProbe.clock` leaves it out, so
what is timed with it, a request's latency included, does not count it.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

#: seconds between timer samples
PERIOD = 0.05

#: the kernel's time at the reference speed (a quiet 2-vCPU 2.1 GHz Xeon
#: VM, Python 3.11)
REFERENCE_S = 0.0006

#: the program's slowdown is the kernel's to this power.  Under contention
#: code with a larger working set than the kernel's slows down more: over
#: 60 runs of the three workloads (two ten-seed sets on a quiet and on a
#: busy VM), log raw seconds against log kernel slowdown gave slopes of
#: 1.22, 1.33 and 1.22, each with a correlation of 0.98-0.99
EXPONENT = 1.25

#: fewest samples a slowdown is taken over (a phase too brief for the
#: timer tops up with explicit samples at its end)
MIN_SAMPLES = 10

#: share of samples dropped at each end before the mean
TRIM = 0.1


def kernel() -> int:
    s = 0
    for i in range(10000):
        s += i * i % 7
    return s


class SpeedProbe:
    """Kernel timings taken during one process's run."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: seconds spent running the kernel so far
        self.spent = 0.0
        #: where the current phase's samples start
        self._phase = 0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            kernel()
            dt = time.perf_counter() - t0
            self.samples.append(dt)
            self.spent += dt

    def clock(self) -> float:
        """``time.perf_counter()`` without the time spent in samples."""
        return time.perf_counter() - self.spent

    def _on_alarm(self, _signum, _frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def end_phase(self) -> float:
        """The program's slowdown (>1: slower) over the phase ending now.

        A phase runs from the previous call (or the start) to this one;
        its slowdown is its trimmed-mean kernel time over the reference,
        to the power ``EXPONENT``.
        """
        missing = MIN_SAMPLES - (len(self.samples) - self._phase)
        if missing > 0:
            self.sample(missing)
        ordered = sorted(self.samples[self._phase:])
        self._phase = len(self.samples)
        cut = int(len(ordered) * TRIM)
        kernel = statistics.fmean(ordered[cut:len(ordered) - cut])
        return (kernel / REFERENCE_S) ** EXPONENT
