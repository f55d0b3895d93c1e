"""Timing arithmetic: samples by name, medians, tail percentiles, throughput.

The clock is injectable so the arithmetic can be tested without real time.
"""
from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict

# Candidate tail percentiles; a tail is reported only when at least
# TAIL_MIN_BEYOND samples lie beyond it, so one outlier cannot set it.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def tail(values) -> tuple[float, float] | None:
    """``(p, value)`` for the highest of PERCENTILES that has at least ten
    samples beyond it, by nearest rank; ``None`` when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    found = None
    for p in PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            found = (p, ordered[rank - 1])
    return found


def khz(samples: int, seconds: float) -> float:
    """Throughput in thousands of samples per second."""
    return samples / seconds / 1000.0


class Recorder:
    """Durations in seconds, grouped by name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples: dict[str, list[float]] = defaultdict(list)

    def measure(self, fn, *args, **kwargs):
        """Call ``fn`` and return ``(result, seconds)``; records nothing."""
        start = self.clock()
        out = fn(*args, **kwargs)
        return out, self.clock() - start

    def add(self, name: str, seconds: float) -> None:
        self.samples[name].append(seconds)

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])

    def summary(self, name: str) -> dict:
        """Median and tail in milliseconds, with the sample count."""
        values = self.samples[name]
        found = tail(values)
        return {
            "n": len(values),
            "median_ms": 1000.0 * statistics.median(values),
            "tail_pct": found[0] if found else None,
            "tail_ms": 1000.0 * found[1] if found else None,
        }
