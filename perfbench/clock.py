"""Operation times scaled to a fixed reference speed.

Shared hosts run a vCPU at two speeds about 1.7x apart, in phases of a
second to minutes set by other tenants, so raw medians of two runs of
the same code can differ by a quarter. While a `Clock` is open, a timer
signal every PERIOD_S seconds runs a tiny fixed probe in the benchmark's
own thread and records how long it took: a running measure of the speed
the core is giving this process. `Clock.time` reports an operation's
wall time, less the probes that ran inside it, times PROBE_NOMINAL_S over
the mean probe time inside the operation and just before it. That is the
time the operation would have taken at the speed at which the probe
takes PROBE_NOMINAL_S. A single probe is itself noisy (its time spreads
over about +-20%), so an operation too short to hold many probes is
scaled by the last MIN_PROBES probes up to its end.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
# median probe time on an uncontended core of the 2-vCPU VM this
# benchmark was tuned on; it only sets the scale of the reported seconds
PROBE_NOMINAL_S = 0.0006
# probes taken just before an operation that also count for its speed
PROBES_BEFORE = 2
# fewest probes that set an operation's speed
MIN_PROBES = 8

_rng = np.random.default_rng(0)
_A = _rng.random((64, 64))
_B = _rng.random((64, 64))
_V = _rng.random(20000)
_LINES = [",".join(repr(float(v)) for v in row) for row in _rng.random((40, 8))]


def probe() -> None:
    """A third each of the kinds of work evidkit does: small matrix
    products, element-wise passes over a score vector, and parsing text
    records into tuples of floats."""
    h = _B
    for _ in range(10):
        h = np.maximum(h @ _A - 16.0, 0.0) * 0.01 + _B
    acc = 0
    for k in range(30):
        acc += int(np.count_nonzero(_V > k / 30))
    rows = [tuple(float(v) for v in line.split(",")) for line in _LINES]
    acc += len(rows)


class Clock:
    """Context manager; disabled, it returns raw wall times and sends no
    signals (traced runs use it so)."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self._probes: list[tuple[float, float]] = []  # (start, seconds)
        self._previous = None

    def __enter__(self) -> "Clock":
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
            probe()  # warm the probe before it is trusted
            for _ in range(PROBES_BEFORE):
                self._probe()
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _probe(self, *_) -> None:
        t0 = time.perf_counter()
        probe()
        self._probes.append((t0, time.perf_counter() - t0))

    def time(self, fn, *args, **kwargs):
        """Run fn; returns (result, scaled seconds, raw seconds)."""
        first = len(self._probes)
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        t1 = time.perf_counter()
        if not self.enabled:
            return result, t1 - t0, t1 - t0
        done = len(self._probes)
        while self._probes[done - 1][0] >= t1:  # a probe that ran after fn returned
            done -= 1
        recent = self._probes[max(0, min(first - PROBES_BEFORE, done - MIN_PROBES)):done]
        raw = t1 - t0 - sum(d for start, d in recent if start >= t0)
        speed = statistics.fmean(d for _, d in recent)
        return result, raw * PROBE_NOMINAL_S / speed, raw
