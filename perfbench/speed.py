"""Machine-speed sampling, to take host contention out of cell times.

On a shared virtual machine the same code runs up to a third slower for
seconds at a time while neighbours are busy, and the guest sees none of it
(no steal time; CPU time stretches as much as wall time). A fixed probe
slows down by the same factor, so the benchmark runs one from a SIGALRM
timer every ``INTERVAL_S`` during the timed loop and records how long it
took.

If the probe takes ``p(t)`` and would take ``REFERENCE_PROBE_S`` on an idle
machine, the machine runs at ``REFERENCE_PROBE_S / p(t)`` of its idle speed.
A cell that took ``T`` seconds of wall time therefore did
``T * REFERENCE_PROBE_S * mean(1 / p)`` seconds of idle-machine work, the
mean taken over the probes during the cell. That is the cell's
``reference_s``. Probe time spent inside a cell is subtracted from its wall
time first.
"""
from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.1
# The probe's duration on an idle 2-vCPU Xeon VM at 2.0 GHz (python 3.11,
# numpy 2.4); it converts probe units back to seconds.
REFERENCE_PROBE_S = 1.0e-3
# Probes within this distance of a cell count towards it, so that short
# cells (shorter than INTERVAL_S) still see a few probes.
WINDOW_PAD_S = 0.25

_PROBE_ARRAY = np.arange(64, dtype=float)


def probe() -> float:
    """A fixed mix of interpreter work and small numpy operations, the
    same kind of work as the benchmark's cells."""
    s = 0.0
    for i in range(250):
        b = _PROBE_ARRAY * 1.0001 + i
        s += float(b.sum()) + sum(j * j for j in range(20))
    return s


class SpeedSampler:
    """Runs ``probe`` every INTERVAL_S while active (as a context manager)."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.probe_total = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        t0 = perf_counter()
        probe()
        d = perf_counter() - t0
        self.starts.append(t0)
        self.durations.append(d)
        self.probe_total += d

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def reference_s(self, start: float, end: float, wall_s: float) -> float:
        """Idle-machine seconds for ``wall_s`` of work done in [start, end]."""
        lo = np.searchsorted(self.starts, start - WINDOW_PAD_S)
        hi = np.searchsorted(self.starts, end + WINDOW_PAD_S)
        window = np.asarray(self.durations[lo:hi])
        return wall_s * REFERENCE_PROBE_S * float(np.mean(1.0 / window))
