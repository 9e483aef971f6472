"""Typed metric registry: counters, gauges, histograms.

One :class:`MetricsRegistry` holds every metric of one scope (the
engine owns one per lifetime; anything can create private ones).  The
three types match the Prometheus data model so the registry exports
both ways:

* :meth:`MetricsRegistry.to_dict` — plain JSON-able snapshot (this is
  what the run journal's final ``summary`` event carries);
* :meth:`MetricsRegistry.to_prometheus` — Prometheus text exposition
  format, for scraping or for ``repro obs export``.

Worker processes do not share registries; their activity rides back on
result payloads as counter *deltas* (:meth:`snapshot` before,
:meth:`delta_since` after, :meth:`merge_delta` in the parent) — the
same parent-merge discipline the span collector uses.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "prometheus_text",
]

#: histogram bucket upper bounds for phase durations, in seconds.
DEFAULT_SECONDS_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0,
)

class Counter:
    """Monotonically increasing count (resets only with its registry)."""

    kind = "counter"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """Point-in-time value (queue depth, cache bytes, worker count)."""

    kind = "gauge"
    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Cumulative-bucket histogram of observations (durations, sizes)."""

    kind = "histogram"
    __slots__ = ("name", "help", "buckets", "bucket_counts", "count", "sum")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Iterable[float]] = None,
    ) -> None:
        self.name = name
        self.help = help
        bounds = tuple(sorted(buckets)) if buckets is not None \
            else DEFAULT_SECONDS_BUCKETS
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self.buckets: Tuple[float, ...] = bounds
        self.bucket_counts = [0] * len(bounds)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": {
                repr(bound): count
                for bound, count in zip(self.buckets, self.bucket_counts)
            },
        }


class MetricsRegistry:
    """Get-or-create registry of named metrics, one per scope."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, help, **kwargs)
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}, not {cls.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Iterable[float]] = None,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    # -- export -------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able snapshot grouped by metric type."""
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        with self._lock:
            for name, metric in sorted(self._metrics.items()):
                if isinstance(metric, Counter):
                    out["counters"][name] = metric.value
                elif isinstance(metric, Gauge):
                    out["gauges"][name] = metric.value
                else:
                    out["histograms"][name] = metric.to_dict()
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition format."""
        lines = []
        with self._lock:
            metrics = sorted(self._metrics.items())
        for name, metric in metrics:
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, Histogram):
                # observe() increments every bucket the value fits in,
                # so the stored counts are already cumulative.
                for bound, count in zip(metric.buckets,
                                        metric.bucket_counts):
                    lines.append(
                        f'{name}_bucket{{le="{bound!r}"}} {count}'
                    )
                lines.append(f'{name}_bucket{{le="+Inf"}} {metric.count}')
                lines.append(f"{name}_sum {metric.sum!r}")
                lines.append(f"{name}_count {metric.count}")
            else:
                lines.append(f"{name} {_format_value(metric.value)}")
        return "\n".join(lines) + "\n"

    # -- worker deltas ------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """Counter values now; pair with :meth:`delta_since`."""
        with self._lock:
            return {
                name: metric.value
                for name, metric in self._metrics.items()
                if isinstance(metric, Counter)
            }

    def delta_since(self, snapshot: Dict[str, float]) -> Dict[str, float]:
        """Nonzero counter increments since ``snapshot``."""
        delta = {}
        for name, value in self.snapshot().items():
            change = value - snapshot.get(name, 0.0)
            if change:
                delta[name] = change
        return delta

    def merge_delta(self, delta: Dict[str, float]) -> None:
        """Fold one worker payload's counter delta in."""
        for name, change in delta.items():
            self.counter(name).inc(change)


def _format_value(value: float) -> str:
    return repr(int(value)) if float(value).is_integer() else repr(value)


def prometheus_text(snapshot: dict) -> str:
    """Render a :meth:`MetricsRegistry.to_dict` snapshot (e.g. replayed
    from a journal's ``summary`` event) as Prometheus text."""
    registry = MetricsRegistry()
    for name, value in snapshot.get("counters", {}).items():
        registry.counter(name).inc(value)
    for name, value in snapshot.get("gauges", {}).items():
        registry.gauge(name).set(value)
    for name, hist in snapshot.get("histograms", {}).items():
        bounds = [float(b) for b in hist.get("buckets", {})]
        metric = registry.histogram(name, buckets=bounds or None)
        metric.count = hist.get("count", 0)
        metric.sum = hist.get("sum", 0.0)
        metric.bucket_counts = [
            hist["buckets"][key] for key in sorted(
                hist.get("buckets", {}), key=float
            )
        ]
    return registry.to_prometheus()
