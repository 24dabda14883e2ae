"""Reads the machine's current speed while a workload runs.

Shared machines drift: the same repetition can take 40% longer a few
seconds later.  A worker therefore times a fixed pure-Python probe every
SAMPLE_PERIOD_S from a SIGALRM handler while its workload runs, subtracts
the time spent in the handler from what it measures, and scales each
measured time by REFERENCE_S over the probe readings taken during it.
Times are so reported at one fixed machine speed: the one at which the
probe takes REFERENCE_S.  The probe imports nothing from the package, so
no change to the package moves it.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

# the probe's time at the machine speed all reported times are scaled to
REFERENCE_S = 0.001
SAMPLE_PERIOD_S = 0.05
# readings taken right before and after a workload, outside the handler
EDGE_READINGS = 5


@dataclass(frozen=True)
class _Pair:
    a: int
    b: int


def _step(p: _Pair, m: int) -> _Pair:
    return _Pair((p.a * p.a + p.b) % m, (p.a * p.b + 1) % m)


def probe_s() -> float:
    """Time one pass of a loop shaped like the package's hot paths.

    Integer arithmetic, dict churn, calls and frozen-dataclass churn.
    """
    t = time.perf_counter()
    acc, table = 0, {}
    for i in range(1600):
        x = (i * i + 7) % 1000003
        table[i & 511] = (x, i)
        acc = (acc + x * (i | 1)) % 998244353
        if x & 1:
            acc ^= len(table)
    p, m = _Pair(3, 5), 1000003
    for _ in range(240):
        p = _step(p, m)
        acc += pow(p.a, 17, m) + len(str(p.b)) + {"a": p.a, "b": p.b}["a"] % 7
    return time.perf_counter() - t


class SpeedSampler:
    """Probe readings (time, seconds) taken every SAMPLE_PERIOD_S inside `with`.

    paused_s is the total time spent in the handler; callers subtract the
    part that fell inside an interval they time.
    """

    def __init__(self) -> None:
        self.readings: list[tuple[float, float]] = []
        self.paused_s = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t = time.perf_counter()
        self.readings.append((t, probe_s()))
        self.paused_s += time.perf_counter() - t

    def read_now(self, count: int = EDGE_READINGS) -> None:
        for _ in range(count):
            self.readings.append((time.perf_counter(), probe_s()))

    def __enter__(self) -> "SpeedSampler":
        self.read_now()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.read_now()

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean probe time near [t0, t1].

        Uses the readings within one sampling period of the interval, or
        the three nearest when an interval is too short to hold any.
        """
        near = [r for t, r in self.readings if t0 - SAMPLE_PERIOD_S <= t <= t1 + SAMPLE_PERIOD_S]
        if len(near) < 3:
            mid = (t0 + t1) / 2
            near = [r for _, r in sorted(self.readings, key=lambda tr: abs(tr[0] - mid))[:3]]
        return REFERENCE_S * len(near) / sum(near)
