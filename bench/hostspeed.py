"""Correction of pass times for the changing speed of a shared host.

On a shared VM, other tenants slow this process by up to 1.9x for
seconds to minutes at a time, and no steal time shows: CPU time equals wall time.
So while the passes run, a fixed probe (a short pure-Python loop) runs
from a ``SIGALRM`` handler every ``interval`` seconds, in the same thread
as the passes, and its time gives the host's speed at that moment.

The work a pass does is the integral of the host's speed over its wall
time, and the probe's time is inversely proportional to that speed (on
the reference host, over 200 s of ``kernel_homology(3)`` calls whose wall
time spread by 1.9x, the log of a call's time against the log of the mean
probe time had slope 1.09 and correlation 0.95).  So a pass's corrected
time is its wall time, less the time the probes took inside it, times the
mean of ``REFERENCE_PROBE_S / probe`` over those probes: the pass's time
on a host where the probe takes ``REFERENCE_PROBE_S``.  The constant is
the probe's undisturbed time on the reference host (a 2-vCPU VM,
"Intel(R) Xeon(R) Processor" at 2.1 GHz, CPython 3.11); corrected times
from other hosts are comparable with each other, not with wall time.
"""

from __future__ import annotations

import bisect
import signal
import time

REFERENCE_PROBE_S = 2.0e-4
PROBE_STEPS = 1500


def clock() -> float:
    """CLOCK_MONOTONIC: one clock for this process and its children."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class HostSpeed:
    """Context manager that probes the host's speed while it is open."""

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._buf = [0] * 64
        self._previous = None

    def _probe(self, signum, frame) -> None:
        t0 = clock()
        x, buf = 1, self._buf
        for i in range(PROBE_STEPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            buf[i & 63] = x
        self.durations.append(clock() - t0)
        self.starts.append(t0)

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def corrected(self, t0: float, t1: float, in_process: bool = True) -> float:
        """Corrected time of work that ran from ``t0`` to ``t1``.

        With ``in_process`` the work ran in this thread, so the probes'
        own time is taken out of it; otherwise it ran in another process
        (on the other core) while this one only waited and probed.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.durations[lo:hi]
        if not inside:
            return t1 - t0
        speed = sum(REFERENCE_PROBE_S / d for d in inside) / len(inside)
        return (t1 - t0 - (sum(inside) if in_process else 0.0)) * speed

    def summary(self) -> dict:
        ordered = sorted(self.durations)
        return {
            "interval_s": self.interval,
            "reference_probe_s": REFERENCE_PROBE_S,
            "probes": len(ordered),
            "min_probe_s": ordered[0] if ordered else None,
            "median_probe_s": ordered[len(ordered) // 2] if ordered else None,
        }
