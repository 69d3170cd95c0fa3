"""Metrics registries: counters, gauges, latency histograms.

Every metric type defines an *associative and commutative* merge, so
registries fold in any order (and any grouping) and land on the same
totals (the daemon merges one registry per batch into its lifetime
registry, and that with the process-wide one to answer ``metrics``) —

* counters merge by summation,
* gauges merge by maximum (a high-water mark: peak RSS, peak queue depth),
* histograms merge by element-wise bucket summation (the two sides must
  share the same bucket boundaries; a mismatch is a programming error and
  raises).

``render_prometheus()`` produces text exposition in the Prometheus
format (``# TYPE`` headers, ``_bucket{le="..."}`` cumulative histogram
series, ``_sum``/``_count``), which the daemon returns for a ``metrics``
service request.  Metric names use dotted stage names internally
(``service.requests``) and are sanitised to ``repro_service_requests``
style on exposition.
"""

from __future__ import annotations

import re
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "reset_registry",
]

# Upper bucket bounds in seconds; +Inf is implicit.  Spread to cover both
# real socket round-trips (milliseconds) and virtual-latency-dominated
# corpus passes (tens of seconds).
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _expo_name(name: str) -> str:
    sanitized = _NAME_RE.sub("_", name)
    if not sanitized.startswith("repro_"):
        sanitized = "repro_" + sanitized
    return sanitized


class Histogram:
    """Fixed-bucket histogram with cumulative Prometheus exposition."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.sum += value
        self.count += 1

    def merge(self, other: "Histogram") -> None:
        if other.buckets != self.buckets:
            raise ValueError(
                "cannot merge histograms with different bucket bounds: "
                f"{self.buckets} vs {other.buckets}"
            )
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.sum += other.sum
        self.count += other.count

    def to_dict(self) -> Dict[str, Any]:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Histogram":
        histogram = cls(payload["buckets"])
        counts = [int(n) for n in payload["counts"]]
        if len(counts) != len(histogram.counts):
            raise ValueError("histogram payload counts do not match buckets")
        histogram.counts = counts
        histogram.sum = float(payload["sum"])
        histogram.count = int(payload["count"])
        return histogram


class MetricsRegistry:
    """Thread-safe registry of named counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- recording ----------------------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {name!r} cannot decrease by {amount}")
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = Histogram(buckets)
                self._histograms[name] = histogram
            histogram.observe(value)

    # -- reading ------------------------------------------------------

    def counter_value(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    def gauge_value(self, name: str) -> Optional[float]:
        with self._lock:
            return self._gauges.get(name)

    def histogram_value(self, name: str) -> Optional[Histogram]:
        with self._lock:
            return self._histograms.get(name)

    # -- merge contract ----------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other* into this registry (sum / max / bucket-sum)."""
        with other._lock:
            counters = dict(other._counters)
            gauges = dict(other._gauges)
            histograms = {
                name: Histogram.from_dict(h.to_dict())
                for name, h in other._histograms.items()
            }
        with self._lock:
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0.0) + value
            for name, value in gauges.items():
                current = self._gauges.get(name)
                self._gauges[name] = value if current is None else max(current, value)
            for name, histogram in histograms.items():
                mine = self._histograms.get(name)
                if mine is None:
                    self._histograms[name] = histogram
                else:
                    mine.merge(histogram)

    @classmethod
    def merged(cls, parts: Iterable["MetricsRegistry"]) -> "MetricsRegistry":
        registry = cls()
        for part in parts:
            registry.merge(part)
        return registry

    # -- snapshot (one lock hold) -------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: h.to_dict() for name, h in self._histograms.items()
                },
            }

    # -- exposition ---------------------------------------------------

    def render_prometheus(self) -> str:
        """Prometheus-style text exposition of every metric."""
        lines: List[str] = []
        with self._lock:
            for name in sorted(self._counters):
                expo = _expo_name(name)
                if not expo.endswith("_total"):
                    expo += "_total"
                lines.append(f"# TYPE {expo} counter")
                lines.append(f"{expo} {_format_value(self._counters[name])}")
            for name in sorted(self._gauges):
                expo = _expo_name(name)
                lines.append(f"# TYPE {expo} gauge")
                lines.append(f"{expo} {_format_value(self._gauges[name])}")
            for name in sorted(self._histograms):
                histogram = self._histograms[name]
                expo = _expo_name(name)
                lines.append(f"# TYPE {expo} histogram")
                cumulative = 0
                for bound, count in zip(histogram.buckets, histogram.counts):
                    cumulative += count
                    lines.append(
                        f'{expo}_bucket{{le="{_format_value(bound)}"}} {cumulative}'
                    )
                cumulative += histogram.counts[-1]
                lines.append(f'{expo}_bucket{{le="+Inf"}} {cumulative}')
                lines.append(f"{expo}_sum {_format_value(histogram.sum)}")
                lines.append(f"{expo}_count {histogram.count}")
        return "\n".join(lines) + "\n" if lines else ""

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry."""
    return _registry


def reset_registry() -> None:
    """Clear the process-wide registry (test helper)."""
    _registry.reset()
