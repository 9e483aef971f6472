"""Synthetic workload substrate (traces, generators, suite registry)
plus external trace ingestion (:mod:`repro.workloads.ingest`)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".ingest": ("ExternalTraceSpec", "MemtraceAdapter", "NpzAdapter",
                "TraceImport", "TraceImportError", "import_trace",
                "resolve_trace_source", "trace_source"),
    ".suites": ("GOOGLE_CATEGORIES", "SCALES", "ReproScale", "WorkloadSpec",
                "active_scale", "build_trace", "evaluation_workloads",
                "extended_workloads", "find_workload", "google_workloads",
                "representative_subset", "tuning_workloads",
                "workloads_by_suite"),
    ".trace": ("Trace", "TraceBuilder"),
    ".tracecache": ("TraceCache", "reset_trace_cache", "trace_cache"),
})
