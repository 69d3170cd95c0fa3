"""Pure arithmetic of the benchmark: tail percentiles, self time and
open-loop schedules.

Nothing here imports the program under test, so ``selftest.py`` can pin
every formula without building a world.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

TAIL_SAMPLES = 10
"""A percentile is reported only when at least this many samples lie
beyond it (choosing-metrics: "the highest percentile that has at least
ten samples beyond it")."""


def percentile(values, quantile: float, tail: int = TAIL_SAMPLES) -> float:
    """Nearest-rank *quantile* of *values*; refuses a thin tail.

    The nearest-rank value at rank ``ceil(q * n)`` leaves ``n - rank``
    samples strictly beyond it; fewer than *tail* raises ``ValueError``
    instead of reporting a tail percentile the sample cannot support.
    Failed operations enter as ``math.inf``, so they count as missing any
    latency limit.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(quantile * n - 1e-9))
    if n - rank < tail:
        raise ValueError(
            f"p{quantile * 100:g} of {n} samples has {n - rank} beyond it; "
            f"need {tail}"
        )
    return float(ordered[rank - 1])


def self_time(start: float, end: float, children) -> float:
    """Duration of ``[start, end)`` not covered by any child interval.

    Children are clipped to the parent and may overlap each other (a
    union is taken), so nested or concurrent spans are never subtracted
    twice.
    """
    covered = 0.0
    cursor = start
    for child_start, child_end in sorted(children):
        lo = max(child_start, cursor)
        hi = min(child_end, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (end - start) - covered


def poisson_schedule(rate: float, count: int, rng: random.Random) -> list[float]:
    """*count* Poisson arrival offsets (seconds from the step start) at *rate*/s.

    The exponential gaps are drawn by stratified sampling -- one gap from
    each of *count* equal-probability slices of the distribution -- and
    the seed shuffles their order.  Every step thus offers exactly its
    rate with the same spread of gaps; only which gaps fall next to each
    other (the bunching a tail percentile is sensitive to) varies with
    the seed.
    """
    if rate <= 0 or count < 1:
        raise ValueError("rate and count must be positive")
    gaps = [
        -math.log(1.0 - (slot + rng.random()) / count) / rate
        for slot in range(count)
    ]
    rng.shuffle(gaps)
    offsets = []
    now = 0.0
    for gap in gaps:
        now += gap
        offsets.append(now)
    return offsets


@dataclass(frozen=True)
class StepResult:
    """One offered-rate step of an open-loop run.

    *latencies* are seconds from each request's due time to its answer,
    ``math.inf`` for a request that failed; *lateness* is how long after
    its due time each request was actually sent, in due-time order;
    *span_s* runs from the step's schedule origin to its last answer.
    """

    rate: float
    latencies: tuple[float, ...]
    lateness: tuple[float, ...]
    span_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(1 for value in self.latencies if math.isinf(value))

    def p50_ms(self) -> float:
        return 1000.0 * percentile(self.latencies, 0.50)

    def p95_ms(self) -> float:
        return 1000.0 * percentile(self.latencies, 0.95)

    def late_p95_ms(self) -> float:
        return 1000.0 * percentile(self.lateness, 0.95)

    def answered_per_s(self, weights) -> float:
        """Sum of *weights* (one per request, e.g. its candidate cells)
        over the answered requests, per second of the step's span."""
        done = sum(
            weight
            for weight, latency in zip(weights, self.latencies)
            if not math.isinf(latency)
        )
        return done / self.span_s
