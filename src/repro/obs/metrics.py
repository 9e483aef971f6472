"""Typed metric registry: counters and gauges.

One :class:`MetricsRegistry` holds every metric of one scope (the
engine owns one per lifetime; anything can create private ones).  The
two types match the Prometheus data model:

* :meth:`MetricsRegistry.to_dict` — plain JSON-able snapshot (this is
  what the run journal's final ``summary`` event carries);
* :func:`prometheus_text` — renders such a snapshot in the Prometheus
  text exposition format, for ``repro obs export``.

Worker processes do not share registries; their activity rides back on
result payloads (the ``_obs`` field) and the parent folds it in — the
same parent-merge discipline the span collector uses.
"""

from __future__ import annotations

import threading
from typing import Dict

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "prometheus_text",
]


class Counter:
    """Monotonically increasing count (resets only with its registry)."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """Point-in-time value (queue depth, cache bytes, worker count)."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class MetricsRegistry:
    """Get-or-create registry of named metrics, one per scope."""

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name)
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}, not {cls.kind}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(Counter, name)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(Gauge, name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def to_dict(self) -> dict:
        """JSON-able snapshot grouped by metric type."""
        out: dict = {"counters": {}, "gauges": {}}
        with self._lock:
            for name, metric in sorted(self._metrics.items()):
                group = "counters" if isinstance(metric, Counter) \
                    else "gauges"
                out[group][name] = metric.value
        return out


def _format_value(value: float) -> str:
    return repr(int(value)) if float(value).is_integer() else repr(value)


def prometheus_text(snapshot: dict) -> str:
    """Render a :meth:`MetricsRegistry.to_dict` snapshot (e.g. replayed
    from a journal's ``summary`` event) as Prometheus text."""
    metrics = sorted(
        [(name, "counter", value)
         for name, value in snapshot.get("counters", {}).items()]
        + [(name, "gauge", value)
           for name, value in snapshot.get("gauges", {}).items()])
    lines = []
    for name, kind, value in metrics:
        lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name} {_format_value(float(value))}")
    return "\n".join(lines) + "\n"
