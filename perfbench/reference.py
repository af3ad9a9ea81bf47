"""A fixed reference computation that measures the host's current speed.

On a shared host the speed of identical work changes by up to 2x within
a second and by tens of percent over minutes: a core runs at one of two
speeds, depending on what other tenants run beside it, and switches
between them every fraction of a second to every few seconds.  Raw job
times from runs minutes apart therefore differ by more than a regression
bound.  So the benchmark also reports each job's cost in *reference
units*: its CPU time divided by the CPU time the reference computation
took while the job ran.  That keeps what the library does and drops most
of the host's drift.

``Sampler`` times ``work()`` from a ``SIGALRM`` handler every
``INTERVAL`` seconds of wall time, so samples are taken inside the jobs,
between the library's bytecodes.  The handler's own time is tracked and
left out of job times.  A job that used ``T`` seconds of CPU and saw
samples ``r_1..r_k`` costs ``T * mean(1 / r_i)`` reference units.  CPU
time, not wall time, so that time the CPU spends on another process or
another guest counts in neither ``T`` nor ``r_i``.

The reference does the kinds of work conestab does, in pure Python:
``Fraction`` arithmetic, tuple keys in dicts, and sorting.  It never calls
the library, so a change to the library cannot change it.
"""

import bisect
import signal
import time
from fractions import Fraction

INTERVAL = 0.025  # seconds between samples; each sample takes about 0.5 ms
NEAREST = 4  # samples used for a job too short to contain that many


def work():
    table = {}
    for i in range(1, 40):
        key = (i * 7919 % 211, i % 7)
        table[key] = table.get(key, Fraction(0)) + Fraction(i, key[0] + 1)
    ranked = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    total = Fraction(0)
    for (a, b), value in ranked:
        total += value * Fraction(b + 1, a + 1)
    return total


EXPECTED = work()


class Sampler:
    """Reference samples taken on a wall-clock timer while jobs run.

    ``times`` holds each sample's wall-clock start and ``refs`` its CPU
    time, in seconds; ``busy`` is the total CPU time spent in the handler.
    """

    def __init__(self):
        self.times = []
        self.refs = []
        self.busy = 0.0
        self.wrong = 0

    def _sample(self, signum, frame):
        self.times.append(time.perf_counter())
        c0 = time.process_time()
        value = work()
        self.refs.append(time.process_time() - c0)
        if value != EXPECTED:
            self.wrong += 1
        self.busy += time.process_time() - c0

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if self.wrong:
            raise RuntimeError("reference computation gave a different value")

    def cost(self, start, end, cpu):
        """Reference units of a job that ran from ``start`` to ``end`` (wall
        clock) and used ``cpu`` seconds of CPU outside the handler."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(mid - NEAREST // 2, len(self.times) - NEAREST))
            hi = min(len(self.times), lo + NEAREST)
        speed = sum(1 / r for r in self.refs[lo:hi]) / (hi - lo)
        return cpu * speed
