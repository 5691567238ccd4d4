"""Latency histograms and per-method counters for the compile service.

The ops surface a long-lived daemon needs: every request's wall-clock
latency lands in a :class:`LatencyHistogram` bucketed on a power-of-two
millisecond scale (sub-millisecond cache hits and multi-second cold
compiles share one axis without losing either end), and
:class:`MethodMetrics` keeps one histogram per request method plus
ok/error counts.  Everything is thread-safe and snapshots to plain JSON
for the ``stats`` endpoint -- no third-party metrics client, the same
stdlib-only discipline as the rest of :mod:`repro.server`.

Percentiles reported by :meth:`LatencyHistogram.as_dict` interpolate
linearly inside the bucket that holds the quantile (the standard
histogram-quantile trade: bounded memory, ~2x bucket width), with the
bucket narrowed to the exact observed ``min``/``max`` -- so an estimate
never leaves the observed range and a single sample reports itself.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

#: Bucket upper bounds in milliseconds: powers of two from 1ms to ~65s,
#: plus a catch-all overflow bucket.  17 counters per histogram.
BUCKET_BOUNDS_MS: tuple[float, ...] = tuple(float(1 << i) for i in range(17))


class LatencyHistogram:
    """A fixed-bucket latency histogram (power-of-two millisecond scale)."""

    __slots__ = ("_lock", "_counts", "count", "total_s", "min_s", "max_s")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = [0] * (len(BUCKET_BOUNDS_MS) + 1)
        self.count = 0
        self.total_s = 0.0
        self.min_s: Optional[float] = None
        self.max_s: Optional[float] = None

    def record(self, seconds: float) -> None:
        ms = seconds * 1000.0
        index = 0
        for index, bound in enumerate(BUCKET_BOUNDS_MS):  # noqa: B007
            if ms <= bound:
                break
        else:
            index = len(BUCKET_BOUNDS_MS)
        with self._lock:
            self._counts[index] += 1
            self.count += 1
            self.total_s += seconds
            if self.min_s is None or seconds < self.min_s:
                self.min_s = seconds
            if self.max_s is None or seconds > self.max_s:
                self.max_s = seconds

    def _percentile_locked(self, fraction: float) -> Optional[float]:
        """Estimate of one quantile, in milliseconds.

        Linear interpolation inside the quantile's bucket, whose edges are
        first clamped to the observed ``[min, max]`` (the overflow bucket's
        upper edge *is* the max).
        """
        if self.count == 0:
            return None
        min_ms = (self.min_s or 0.0) * 1000.0
        max_ms = (self.max_s or 0.0) * 1000.0
        target = fraction * self.count
        running = 0
        for index, bucket_count in enumerate(self._counts):
            if not bucket_count or running + bucket_count < target:
                running += bucket_count
                continue
            lower = BUCKET_BOUNDS_MS[index - 1] if index else 0.0
            upper = BUCKET_BOUNDS_MS[index] if index < len(BUCKET_BOUNDS_MS) else max_ms
            lower, upper = max(lower, min_ms), min(upper, max_ms)
            position = (target - running) / bucket_count
            return round(lower + (upper - lower) * position, 3)
        return round(max_ms, 3)

    def as_dict(self) -> dict[str, Any]:
        with self._lock:
            if self.count == 0:
                return {"count": 0}
            mean_ms = (self.total_s / self.count) * 1000.0
            return {
                "count": self.count,
                "mean_ms": round(mean_ms, 3),
                "min_ms": round((self.min_s or 0.0) * 1000.0, 3),
                "max_ms": round((self.max_s or 0.0) * 1000.0, 3),
                "p50_ms": self._percentile_locked(0.50),
                "p90_ms": self._percentile_locked(0.90),
                "p99_ms": self._percentile_locked(0.99),
                "buckets_ms": {
                    str(int(bound)): count
                    for bound, count in zip(BUCKET_BOUNDS_MS, self._counts)
                    if count
                },
                "overflow": self._counts[-1],
            }


class MethodMetrics:
    """Per-method latency histograms plus ok/error counts.

    Only known method names get their own series (the same unbounded-peer
    guard as the service's request counters); everything else lands in the
    ``<unknown>`` bucket.
    """

    def __init__(self, known_methods: tuple[str, ...] = ()) -> None:
        self._known = frozenset(known_methods)
        self._lock = threading.Lock()
        self._series: dict[str, LatencyHistogram] = {}
        self._ok: dict[str, int] = {}
        self._errors: dict[str, int] = {}

    def record(self, method: Optional[str], seconds: float, *, ok: bool) -> None:
        key = method if (method in self._known) else "<unknown>"
        with self._lock:
            histogram = self._series.get(key)
            if histogram is None:
                histogram = self._series[key] = LatencyHistogram()
            counter = self._ok if ok else self._errors
            counter[key] = counter.get(key, 0) + 1
        histogram.record(seconds)

    def as_dict(self) -> dict[str, Any]:
        with self._lock:
            series = dict(self._series)
            ok = dict(self._ok)
            errors = dict(self._errors)
        return {
            method: {
                "ok": ok.get(method, 0),
                "errors": errors.get(method, 0),
                "latency": histogram.as_dict(),
            }
            for method, histogram in sorted(series.items())
        }
