"""A clock that runs at a fixed machine speed: reference seconds.

The shared virtual machines this benchmark runs on change speed with their
neighbours' load: a fixed pure-Python loop takes 1.6 times as long in the
slow mode as in the fast one, switching within seconds at some times and
holding for minutes at others.  Wall-clock times of one unchanged program
then spread wider than the benchmark's bounds.

`SpeedClock` times `reference_loop` every PERIOD_S seconds from a SIGALRM
handler and, between readings, advances at wall speed times REF_S over the
loop's current duration (the median of its last three readings, so that
one disturbed reading does not count).  Work that slows as the loop does
thus reads the same whatever mode the machine ran it in: one reference
second is the time the work takes where the loop takes REF_S.  Work that
slows less (copying long tuple slices) or more (walking large dicts) keeps
part of the mode's effect.  The handler's own time is
left out of the reading.  Outside `running()` the clock keeps wall speed.

Only the main thread of a single-threaded process may use it: the handler
runs between the bytecodes of that thread.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.05
REF_S = 0.0004  # the loop's duration on a 2.1 GHz Xeon VM in its fast mode
_LOOP = 5000


def reference_loop() -> int:
    s = 0
    for i in range(_LOOP):
        s += i * i % 7
    return s


class SpeedClock:
    def __init__(self):
        t = perf_counter()
        # (reading at wall time t_last, t_last, reference seconds per second)
        self._state = (t, t, 1.0)
        self._recent: list[float] = []
        self._busy = False
        self.readings: list[float] = []  # every loop duration, in s

    def now(self) -> float:
        while True:
            state = self._state
            t = perf_counter()
            if state is self._state:  # no reading came in between
                reading, t_last, rate = state
                return reading + (t - t_last) * rate

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        reading, t_last, rate = self._state
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        self.readings.append(t1 - t0)
        self._recent = (self._recent + [t1 - t0])[-3:]
        self._state = (reading + (t0 - t_last) * rate, t1,
                       REF_S / statistics.median(self._recent))
        self._busy = False

    @contextlib.contextmanager
    def running(self):
        """Sample the machine's speed while the block runs."""
        self._recent = []
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._state = (self.now(), perf_counter(), 1.0)


CLOCK = SpeedClock()  # one per process, as SIGALRM is
