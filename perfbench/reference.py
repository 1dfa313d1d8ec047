"""A fixed reference kernel that tracks how fast the machine runs right now.

The benchmark shares a few cores of a host with other tenants, and the speed
of a core flips between a fast and a slow state (about 1.7x apart) every few
seconds, whatever the program does.  The reference kernel is a small
pure-Python loop in the style of the program's hot path (2x2 complex
products, singular-value quadratics, logs) that lives here, so its cost never
changes with the program.  Timing it gives the machine's speed at that moment.

``Meter.time`` runs an op while a wall-clock timer interrupts it every
``TICK_S`` to take one reference sample, plus one sample just before and one
just after.  The time spent sampling is taken out of the op's wall time, and
the op's normalised time is ``op_s * REF_S / mean(samples)``: the time it
would take on a machine where the reference kernel takes exactly ``REF_S``.
Because the samples are spread over the op, a change of speed in the middle
of a long op is weighed by how long it lasted.  Program changes move the
normalised time in full; drift of the machine mostly cancels.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

REF_S = 1e-4  # nominal seconds per reference kernel, about a fast core's time
REF_STEPS = 50  # products per reference kernel
TICK_S = 0.01  # wall seconds between samples taken during an op


class _M:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = a
        self.b = b
        self.c = c
        self.d = d


def _mul(x: _M, y: _M) -> _M:
    return _M(x.a * y.a + x.b * y.c, x.a * y.b + x.b * y.d,
              x.c * y.a + x.d * y.c, x.c * y.b + x.d * y.d)


def _sigma1_det(m: _M) -> tuple[float, float]:
    n2 = (m.a * m.a.conjugate() + m.b * m.b.conjugate()
          + m.c * m.c.conjugate() + m.d * m.d.conjugate()).real
    det = abs(m.a * m.d - m.b * m.c)
    disc = math.sqrt(max(n2 * n2 - 4.0 * det * det, 0.0))
    return math.sqrt((n2 + disc) / 2.0), det


def kernel(steps: int = REF_STEPS) -> float:
    """A rescaled product of one fixed factor; returns a sum of logs of it."""
    f = _M(1.1 + 0.2j, 0.3 - 0.1j, -0.2 + 0.05j, 0.7 + 0.4j)
    p = _M(1 + 0j, 0j, 0j, 1 + 0j)
    total = 0.0
    for _ in range(steps):
        p = _mul(f, p)
        s1, det = _sigma1_det(p)
        k = 1.0 / s1
        p = _M(p.a * k, p.b * k, p.c * k, p.d * k)
        total += math.log(s1) + math.log1p(det)
    return total


def sample() -> float:
    """Wall seconds of one reference kernel now: the faster of two, so an
    interrupt that lands in one of them does not count."""
    t0 = time.perf_counter()
    kernel()
    t1 = time.perf_counter()
    kernel()
    return min(t1 - t0, time.perf_counter() - t1)


def warm_up(n: int = 200) -> None:
    for _ in range(n):
        kernel()


class Meter:
    """Times calls in wall seconds and in normalised seconds.

    Uses SIGALRM and ITIMER_REAL, so it must run on the main thread, and the
    program under test must not use them.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.sampling_s = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(sample())
        self.sampling_s += time.perf_counter() - t0

    def time(self, fn):
        """(fn(), wall seconds, normalised seconds), sampling time excluded."""
        self.samples = [sample()]
        self.sampling_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.samples.append(sample())
        wall = elapsed - self.sampling_s
        return result, wall, wall * REF_S / statistics.fmean(self.samples)
