"""Structured telemetry: spans, metrics, and run journals.

The observability subsystem, instrumented through the whole stack:

* :mod:`repro.obs.spans` — nested wall/CPU-timed phase spans
  (``trace_build``, ``simulate``, ``store_write``, …) with a
  process-local collector; worker-side spans ride back to the parent on
  result payloads and merge exactly once.
* :mod:`repro.obs.metrics` — a typed registry of counters and gauges
  with JSON and Prometheus-text export; the engine's hit/miss counters
  are views over one.
* :mod:`repro.obs.journal` — an append-only JSONL run journal (one
  event per engine request plus start/summary bookends), its event
  schema + validator, and the aggregations behind
  ``repro obs summary|spans|export``.

Telemetry is opt-in (``--telemetry PATH`` or ``REPRO_TELEMETRY``) and
the disabled path costs one boolean check per instrumented phase, so
the golden-equivalence and bench gates never see it.

See ``docs/observability.md`` for the span model, the journal schema,
and worked examples.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".journal": ("JOURNAL_SCHEMA", "RunJournal", "aggregate_spans",
                 "format_spans", "format_summary", "provenance",
                 "read_journal", "summarize_journal", "validate_event",
                 "validate_journal"),
    ".metrics": ("Counter", "Gauge", "MetricsRegistry", "prometheus_text"),
    ".spans": ("SpanCollector", "collector", "reset_collector",
               "set_enabled", "span", "spans_enabled", "worker_id"),
})
