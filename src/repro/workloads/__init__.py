"""Synthetic workload substrate (traces, generators, suite registry)
plus external trace ingestion (:mod:`repro.workloads.ingest`)."""

from .ingest import (
    ExternalTraceSpec,
    MemtraceAdapter,
    NpzAdapter,
    TraceImport,
    TraceImportError,
    import_trace,
    resolve_trace_source,
    trace_source,
)
from .suites import (
    GOOGLE_CATEGORIES,
    SCALES,
    ReproScale,
    WorkloadSpec,
    active_scale,
    build_trace,
    evaluation_workloads,
    extended_workloads,
    find_workload,
    google_workloads,
    representative_subset,
    tuning_workloads,
    workloads_by_suite,
)
from .trace import Trace, TraceBuilder
from .tracecache import TraceCache, reset_trace_cache, trace_cache

__all__ = [
    "TraceCache",
    "reset_trace_cache",
    "trace_cache",
    "GOOGLE_CATEGORIES",
    "ReproScale",
    "SCALES",
    "Trace",
    "TraceBuilder",
    "WorkloadSpec",
    "active_scale",
    "build_trace",
    "evaluation_workloads",
    "extended_workloads",
    "find_workload",
    "google_workloads",
    "representative_subset",
    "tuning_workloads",
    "workloads_by_suite",
    "ExternalTraceSpec",
    "MemtraceAdapter",
    "NpzAdapter",
    "TraceImport",
    "TraceImportError",
    "import_trace",
    "resolve_trace_source",
    "trace_source",
]
