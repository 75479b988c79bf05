"""Metrics registry: counters, gauges, histograms with percentiles.

Names are dotted paths (``em.iterations``, ``checkpoint.hit``); a name
is bound to one metric kind for the lifetime of the registry —
re-registering it as a different kind raises.  All operations are
thread-safe; histogram storage is bounded (old observations are
overwritten round-robin past the cap) so a million-condition run
cannot exhaust memory through telemetry.
"""

from __future__ import annotations

import threading

from repro.errors import ParameterError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "percentile",
]

#: Histogram observation cap; beyond it, old values are overwritten.
_HISTOGRAM_CAP = 65_536


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of a list."""
    if not values:
        raise ParameterError("percentile of an empty value list")
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    rank = (q / 100.0) * (len(data) - 1)
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    fraction = rank - low
    return data[low] * (1.0 - fraction) + data[high] * fraction


class Counter:
    """Monotonic event count."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def summary(self) -> int:
        return self._value


class Gauge:
    """Last-written value."""

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value: float | None = None

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float | None:
        return self._value

    def summary(self) -> float | None:
        return self._value


class Histogram:
    """Streaming distribution with percentile summaries.

    Keeps up to ``_HISTOGRAM_CAP`` raw observations (overwriting
    round-robin beyond that); count/sum/min/max stay exact regardless.
    """

    kind = "histogram"

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._values: list[float] = []
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            if len(self._values) < _HISTOGRAM_CAP:
                self._values.append(value)
            else:
                self._values[self._count % _HISTOGRAM_CAP] = value
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    @property
    def count(self) -> int:
        return self._count

    def values(self) -> list[float]:
        """The kept raw observations (all of them below the cap)."""
        with self._lock:
            return list(self._values)

    def summary(self) -> dict:
        """Count, mean, min/max and p50/p90/p99 of the observations."""
        with self._lock:
            values = list(self._values)
            count, total = self._count, self._sum
            low, high = self._min, self._max
        if count == 0:
            return {"count": 0}
        return {
            "count": count,
            "mean": total / count,
            "min": low,
            "max": high,
            "p50": percentile(values, 50.0),
            "p90": percentile(values, 90.0),
            "p99": percentile(values, 99.0),
        }


class MetricsRegistry:
    """Thread-safe name → metric registry."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name)
                self._metrics[name] = metric
        if not isinstance(metric, cls):
            raise ParameterError(
                f"metric {name!r} is a {metric.kind}, not a "
                f"{cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    # Convenience write paths (what instrumented code calls).
    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def raw(self) -> dict:
        """Everything recorded, in a form :meth:`absorb` adds up.

        Counters and gauges as values, histograms as their raw
        observations: how a fan-out helper hands a block's metrics
        back to the caller (:mod:`repro.runtime.fanout`).
        """
        with self._lock:
            metrics = dict(self._metrics)
        out: dict[str, dict] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for name, metric in metrics.items():
            out[f"{metric.kind}s"][name] = (
                metric.values()
                if isinstance(metric, Histogram)
                else metric.value
            )
        return out

    def absorb(self, raw: dict) -> None:
        """Add another registry's :meth:`raw` record to this one.

        Counters add, histograms take every observation and gauges
        take the other registry's value.
        """
        for name, amount in raw["counters"].items():
            self.inc(name, amount)
        for name, values in raw["histograms"].items():
            histogram = self.histogram(name)
            for value in values:
                histogram.observe(value)
        for name, value in raw["gauges"].items():
            if value is not None:
                self.set_gauge(name, value)

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._metrics))

    def snapshot(self) -> dict:
        """JSON-serialisable view grouped by metric kind."""
        with self._lock:
            metrics = dict(self._metrics)
        out: dict[str, dict] = {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        for name in sorted(metrics):
            metric = metrics[name]
            out[f"{metric.kind}s"][name] = metric.summary()
        return out
