"""The metrics registry: counters, gauges, and fixed-bucket histograms.

Every metric is one entry in a plain dict, so the cost of an enabled
counter increment is a dict lookup plus an integer add — cheap enough to
leave on for whole Table 1 runs.  When telemetry is disabled the
instrumentation sites short-circuit before ever reaching this module (see
``repro.telemetry``), so the disabled cost is a module-attribute read and
a branch.

Histograms use fixed bucket upper bounds chosen at registration time
(femtosecond-scaled decades by default), so ``observe`` is a linear scan
over a handful of bounds — no allocation, no sorting.
"""

from __future__ import annotations

from typing import Sequence

#: Default histogram bounds: femtosecond decades from 1 ns to 10 ms.
#: Latency observations in a 100 MHz system land squarely inside.
DEFAULT_BUCKETS_FS = (
    10**6,  # 1 ns
    10**7,
    10**8,
    10**9,  # 1 us
    10**10,
    10**11,
    10**12,  # 1 ms
    10**13,  # 10 ms
)


class Histogram:
    """Fixed-bucket histogram with total sum and count."""

    __slots__ = ("name", "bounds", "counts", "overflow", "total", "count")

    def __init__(self, name: str, bounds: Sequence[int] = DEFAULT_BUCKETS_FS):
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram bucket bounds must be sorted")
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * len(self.bounds)
        self.overflow = 0
        self.total = 0
        self.count = 0

    def observe(self, value: int) -> None:
        self.total += value
        self.count += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.overflow += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (Prometheus-style).

        The true value is only known to bucket resolution; within the
        bucket holding the requested rank the estimate interpolates
        linearly between the bucket's lower and upper bounds.  Ranks
        that land in the overflow bucket clamp to the largest finite
        bound — there is no upper edge to interpolate against.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        lower = 0
        for bound, count in zip(self.bounds, self.counts):
            if count:
                if cumulative + count >= rank:
                    within = (rank - cumulative) / count
                    return lower + (bound - lower) * within
                cumulative += count
            lower = bound
        return float(self.bounds[-1])

    def percentiles(self) -> dict:
        """The standard latency trio: p50 / p95 / p99 estimates."""
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "percentiles": {
                name: round(value, 3)
                for name, value in self.percentiles().items()
            },
            "buckets": [
                {"le": bound, "count": count}
                for bound, count in zip(self.bounds, self.counts)
            ],
            "overflow": self.overflow,
        }


class MetricsRegistry:
    """Named counters, gauges, and histograms for one telemetry session."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self):
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- counters -----------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        counters = self._counters
        counters[name] = counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    # -- gauges -------------------------------------------------------------

    def gauge_set(self, name: str, value: float) -> None:
        self._gauges[name] = value

    # -- histograms ---------------------------------------------------------

    def histogram(self, name: str,
                  bounds: Sequence[int] = DEFAULT_BUCKETS_FS) -> Histogram:
        """The histogram registered under *name* (created on first use)."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(name, bounds)
        return hist

    def observe(self, name: str, value: int) -> None:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(name)
        hist.observe(value)

    def histograms(self) -> dict:
        """All registered histograms, by name (read-only view copy)."""
        return dict(self._histograms)

    # -- reporting ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def as_dict(self) -> dict:
        """All metrics as plain types, ready for JSON serialisation."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {
                name: hist.as_dict()
                for name, hist in sorted(self._histograms.items())
            },
        }
