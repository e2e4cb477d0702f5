"""The host's speed, read from a fixed reference computation while a run goes.

The benchmark shares a few cores of a host with other machines, and their
load makes the same work take up to half again as long, in spells from a
fraction of a second to minutes.  Every timed process therefore samples the
host: every INTERVAL_S a timer signal runs ``reference()``, a fixed piece of
exact rational arithmetic like the library's own, and records how long it
took.  A span of work timed at t ns, in which the reference took a median
r ns, is reported as t * NOMINAL_NS / r: the time it would take on a host
that runs the reference in NOMINAL_NS.  The reference's own time is
subtracted from the span first.  The median keeps a reference run that was
itself stalled from scaling a whole span.

This module imports nothing of layercap, and must be imported before it, so
that the reference runs on the standard library's own ``Fraction``.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter_ns

# the reference's time on an unloaded 2-core microVM (Python 3.11)
NOMINAL_NS = 300_000
INTERVAL_S = 0.025


def reference() -> int:
    """Run the reference computation once; its wall time in ns."""
    t0 = perf_counter_ns()
    s = Fraction(0)
    for k in range(1, 120):
        s += Fraction(1, k * k + 1)
    return perf_counter_ns() - t0


class Sampler:
    """Runs the reference on a timer while started; each sample is tagged
    with ``tag`` as it was when the sample ran."""

    def __init__(self):
        self.samples = []  # (tag, ns)
        self.tag = None
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:  # a tick that came due while the last one ran
            return
        self._busy = True
        try:
            self.samples.append((self.tag, reference()))
        finally:
            self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def at_nominal(ns: int, inside, around=()) -> float:
    """ns of work at the nominal host speed.  The reference runs made inside
    it are subtracted and give the speed; if none ran inside, the speed
    comes from those taken around it."""
    inside = list(inside)
    read = inside or list(around)
    if not read:
        raise ValueError("no reference samples")
    return (ns - sum(inside)) * NOMINAL_NS / statistics.median(read)
