"""Elapsed time in reference-machine seconds.

On shared virtual machines the CPU can switch between a fast state and one
about 1.6x slower for seconds to minutes at a time (seen on a 2-vCPU VM), so
raw timings of the same code differ by that much from one run to the next.
A fixed calibration kernel tracks the state. It mixes what the package's hot
paths do (blake2b hashing, small numpy matrix products, dict updates) but
calls none of its code, so a change to the package never changes the kernel. The kernel runs at both ends of every
timed segment and, while :meth:`Speed.sampling` is active, also from a
``SIGALRM`` interval timer, so a long call such as a training run is
calibrated along its whole length. A segment's time is divided by the mean
slowdown against ``REFERENCE_S`` of the calibrations from its start to its
end: the result is the time on a machine where the kernel takes
``REFERENCE_S``. Time spent in the kernel is excluded from every
measurement.
"""

from __future__ import annotations

import contextlib
import hashlib
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.004
# Per-claim loops close a segment once it is this long; the interval timer
# calibrates as often.
SEGMENT_S = 0.1

_MIX = np.eye(32) + 0.01


class Speed:
    """Runs the calibration kernel and keeps its timings."""

    def __init__(self):
        self.calibrations: list[float] = []  # kernel wall seconds, in order
        self.calibrating_s = 0.0
        self._busy = False

    def calibrate(self) -> None:
        if self._busy:  # the timer fired inside a calibration
            return
        self._busy = True
        t0 = time.perf_counter()
        acc = 0
        for i in range(1500):
            acc ^= hashlib.blake2b(b"word%d" % i, digest_size=8).digest()[0]
        x = np.ones((30, 32))
        table = {}
        for i in range(300):
            x = np.tanh(x @ _MIX + 0.1)
            table[i % 17] = x.max(axis=0)
        elapsed = time.perf_counter() - t0
        self.calibrations.append(elapsed)
        self.calibrating_s += elapsed
        self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Also calibrate every ``SEGMENT_S`` from an interval timer."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.calibrate())
        signal.setitimer(signal.ITIMER_REAL, SEGMENT_S, SEGMENT_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def clock(self) -> Clock:
        return Clock(self)


class Clock:
    """Reference seconds since creation, split into calibrated segments.

    ``lap`` closes a segment and returns its (reference, wall) seconds;
    ``s`` and ``raw_s`` are the totals. Latencies passed to ``note`` are
    scaled by the slowdown of the segment they fall in.
    """

    def __init__(self, speed: Speed):
        self.speed = speed
        self.s = 0.0
        self.raw_s = 0.0
        self.latencies_s: list[float] = []
        self._pending: list[float] = []
        speed.calibrate()
        self._restart()

    def _restart(self) -> None:
        self._first = len(self.speed.calibrations) - 1
        self._t0 = time.perf_counter()
        self._calibrated0 = self.speed.calibrating_s

    def note(self, latency_s: float) -> None:
        self._pending.append(latency_s)
        if time.perf_counter() - self._t0 > SEGMENT_S:
            self.lap()

    def lap(self) -> tuple[float, float]:
        raw = time.perf_counter() - self._t0 - (self.speed.calibrating_s - self._calibrated0)
        self.speed.calibrate()
        factor = statistics.mean(self.speed.calibrations[self._first:]) / REFERENCE_S
        self.raw_s += raw
        self.s += raw / factor
        self.latencies_s.extend(t / factor for t in self._pending)
        self._pending.clear()
        self._restart()
        return raw / factor, raw
