"""Rescaling measured times to a nominal host speed.

The speed of a shared host swings, by up to a factor of two, as other
tenants come and go, and such a swing can last longer than a whole run.
A fixed probe, timed at the boundaries of every measured call and every
``INTERVAL_S`` inside it, gives the host's speed while the call ran; the
call's time is rescaled to the nominal speed below, so runs made at
different times compare.  The probe is exact rational polynomial arithmetic,
the kind of work qtriang's scalar layer does, and does not touch qtriang.
Not all work speeds up with the host as much as the probe does, so a fast
phase still leaves an error of several per cent.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# Median probe time on an Intel Xeon with 2 vCPUs and Python 3.11.7.
NOMINAL_S = 0.0015
INTERVAL_S = 0.25

_A = tuple(Fraction(i + 1, 2 * i + 3) for i in range(4))
_B = tuple(Fraction(3 * i + 1, i + 2) for i in range(4))


def probe() -> float:
    """Seconds for a fixed piece of Fraction arithmetic, best of three."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(20):
            raw = [Fraction(0)] * 7
            for i, a in enumerate(_A):
                for j, b in enumerate(_B):
                    raw[i + j] += a * b
            for i in range(6, 3, -1):  # reduce modulo x^4 + 1
                raw[i - 4] -= raw[i]
        best = min(best, time.perf_counter() - start)
    return best


class SpeedTimer:
    """Times calls in seconds at the nominal host speed.

    A call's speed is the mean of the probes right before and after it and,
    while entered, of those a real-time interval timer takes every
    ``interval_s`` (if given) during it; a probe's own time is taken out of
    the call it interrupted.
    """

    def __init__(self, interval_s: float | None = INTERVAL_S):
        self._interval_s = interval_s
        self._samples: list[float] = []
        self._probing_s = 0.0
        self.factors: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._samples.append(probe())
        self._probing_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedTimer":
        self._before = probe()
        if self._interval_s:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self._interval_s, self._interval_s)
        return self

    def __exit__(self, *exc) -> None:
        if self._interval_s:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def time(self, call):
        """Run ``call()``; return its result or exception and its scaled seconds."""
        first = len(self._samples)
        probing = self._probing_s
        start = time.perf_counter()
        try:
            out, exc = call(), None
        except Exception as err:  # a crash is the caller's to judge
            out, exc = None, err
        elapsed = time.perf_counter() - start - (self._probing_s - probing)
        after = probe()
        factor = NOMINAL_S / statistics.fmean([self._before, *self._samples[first:], after])
        self._before = after
        self.factors.append(factor)
        return out, exc, elapsed * factor
