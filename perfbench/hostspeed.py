"""Host-speed sampling: times a fixed piece of pure-Python work at regular
wall-clock instants while the measured code runs.

The benchmark shares a few cores of a host whose speed drifts: on a 2-vCPU
Xeon virtual machine the same loop took from 22 to 40 ms, in spells that
switch within a second and whose mix changes over minutes (see README.md).  A time divided by the mean probe time
sampled over that same interval is a count of "probe durations", which the
drift moves far less than the time itself.  `run.py` reports such times
scaled to a reference host on which one probe takes `REFERENCE_PROBE_S`.

    with Sampler() as sampler:
        t0 = perf_counter(); work(); elapsed = perf_counter() - t0
    seconds_at_reference = sampler.normalise(elapsed)

The probes run from a SIGALRM handler, so they interrupt Python code only
between bytecodes and never inside a C call; the time they take is taken out
of the measured interval by `normalise`.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

PROBE_STEPS = 60
INTERVAL_S = 0.02
REFERENCE_PROBE_S = 2.7e-4


def probe() -> float:
    """Seconds one fixed chain of `Fraction` arithmetic takes now.

    Object allocation, calls and big-integer gcds: of the probes tried, the
    one whose time tracked the workloads' pass times most closely (README.md).
    """
    t0 = perf_counter()
    x = Fraction(1)
    for i in range(1, PROBE_STEPS):
        x = x * Fraction(i + 1, i) + Fraction(1, i * i)
    return perf_counter() - t0


class Sampler:
    """Collects probe times every `INTERVAL_S` of wall time while active."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a late signal while a probe still runs
            return
        self._busy = True
        try:
            self.samples.append(probe())
        finally:
            self._busy = False

    def start(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self) -> "Sampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def mark(self) -> int:
        """Position to pass to `normalise` for an interval starting now."""
        return len(self.samples)

    def normalise(self, elapsed: float, since: int = 0) -> float:
        """`elapsed` wall seconds, measured since `mark()` returned `since`,
        less the probes' own time and scaled to the reference host."""
        taken = self.samples[since:]
        if not taken:  # an interval shorter than one tick: probe once now
            return elapsed / probe() * REFERENCE_PROBE_S
        busy = sum(taken)
        return (elapsed - busy) / (busy / len(taken)) * REFERENCE_PROBE_S
