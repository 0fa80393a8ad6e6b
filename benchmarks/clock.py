"""Timing at reference speed, and the run's deadline, on one SIGALRM timer.

The machine the benchmark was written on is a 2-vCPU VM whose neighbours
slow it by up to a factor of two for seconds to minutes at a time.  Raw
times of one operation spread by a third across 10-second windows, and the
medians of whole 25-second runs by a quarter, more than any bound a
benchmark may declare.  So :class:`Clock` times a fixed piece of reference
work before and after each call and every ``PERIOD`` seconds during it, and
reports the call's wall time (less the reference work done inside it)
scaled by ``REFERENCE_S`` over the mean reference time: seconds at
reference speed.  Only the constancy of the reference matters; a parent and
a change are scaled by the same figure.

The timer also keeps the deadline: when it has passed, the next tick raises
:class:`DeadlineExpired` wherever the main thread is, with no extra thread.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from statistics import fmean
from time import perf_counter

# Seconds the reference work takes on a quiet 2-vCPU VM under Python 3.11.7.
REFERENCE_S = 0.0045
PERIOD = 0.25
MIN_CALL_S = 0.05


class DeadlineExpired(BaseException):
    """Raised from the timer; a BaseException so that no handler in the
    program under test swallows it."""


def reference_work() -> float:
    """Time a fixed piece of interpreter work of the kind the library does:
    tuple keys in dicts and sets, integer and Fraction arithmetic."""
    start = perf_counter()
    table, seen, acc = {}, set(), 0
    for i in range(10000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
        seen.add(key)
        acc += (i * 2654435761) % 1000003
    f = Fraction(1, 3)
    for i in range(100):
        f = f * Fraction(i + 1, i + 2) + Fraction(1, i + 3)
    return perf_counter() - start


class Clock:
    """Install with a deadline (a ``perf_counter`` time); call :meth:`stop`
    before the process ends."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self._samples: list[float] | None = None  # set while a call is timed
        self._inside = 0.0  # reference work done inside the timed call
        self._sampling = False
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        self._last = self._reference()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _reference(self) -> float:
        self._sampling = True
        try:
            return reference_work()
        finally:
            self._sampling = False

    def _tick(self, signum, frame):  # noqa: ANN001
        if perf_counter() >= self.deadline:
            raise DeadlineExpired
        if self._samples is not None and not self._sampling:
            start = perf_counter()
            self._samples.append(self._reference())
            self._inside += perf_counter() - start

    def time(self, call, at_least: float = MIN_CALL_S):  # noqa: ANN001
        """Run ``call()`` until ``at_least`` seconds of wall time have passed
        (short calls are too short to time one by one); return the results, the
        Exception that stopped it (or None), and the mean duration of one
        call in seconds at reference speed.  Collections that the call
        triggers count; garbage it leaves for later does not."""
        # Start every call from a collected heap, so that the garbage of the
        # calls before it does not decide when collections fall inside it.
        gc.collect()
        self._samples, self._inside = [self._last], 0.0
        results, error = [], None
        start = perf_counter()
        try:
            while not results or perf_counter() - start - self._inside < at_least:
                results.append(call())
        except Exception as exc:  # the caller counts it as a failed operation
            error = exc
        finally:
            elapsed = perf_counter() - start - self._inside
            samples, self._samples = self._samples, None
        self._last = self._reference()
        samples.append(self._last)
        calls = len(results) + (error is not None)
        return results, error, elapsed / calls * REFERENCE_S / fmean(samples)
