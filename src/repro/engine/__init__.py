"""Parallel experiment engine with a persistent, content-addressed store.

The engine turns every simulation the experiment harness wants into an
explicit, hashable *request*:

* :mod:`repro.engine.jobs` — :class:`~repro.engine.jobs.RunRequest` (one
  single-core simulation) and :class:`~repro.engine.jobs.MixRequest` (one
  multi-core mix), each canonicalized into a stable content-hash key,
  plus the JSON codecs for their results.
* :mod:`repro.engine.backend` — the shared SQLite seam (WAL, busy
  timeout, bounded retry on ``SQLITE_BUSY``, foreign-file guard) that
  both durable subsystems sit on.
* :mod:`repro.engine.store` — an on-disk SQLite result store mapping run
  keys to serialized results, safe for concurrent writer processes.
* :mod:`repro.engine.pool` — the ``ProcessPoolExecutor`` wrapper that
  deduplicates in-flight requests by key and rebuilds a broken pool
  (degrading to inline execution when it cannot be revived), plus the
  worker entry point that runs one request.
* :mod:`repro.engine.faults` — the failure model
  (:class:`~repro.engine.faults.RequestFailure`), the retry/timeout
  policy (:class:`~repro.engine.faults.ExecutionPolicy`), and the
  deterministic fault-injection harness
  (:class:`~repro.engine.faults.FaultPlan`, ``REPRO_FAULTS``).
* :mod:`repro.engine.queue` — the SQLite job queue
  (``pending/leased/done/failed``, content-hash job identity).  Every
  miss is a queue job; ``:memory:`` unless ``--queue PATH``, whose
  durable file makes a campaign crash-resumable across OS processes.
* :mod:`repro.engine.service` — the lease/heartbeat/reclaim worker
  (:class:`~repro.engine.service.QueueWorker`), the one executor: it
  settles every attempt (retry, backoff, timeout, pool crash,
  fail-fast), embedded in every engine batch or standalone via
  ``repro worker``.
* :mod:`repro.engine.api` — the :class:`~repro.engine.api.Engine` façade
  (memo → store → queue job, with hit/miss counters) that
  :class:`repro.experiments.runner.ExperimentContext` delegates to.

Identical requests are executed exactly once per store lifetime: a cold
``repro figures --all --jobs N`` fans misses out across N worker
processes, and a warm rerun replays everything from the store without
executing a single simulation.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".api": ("Completed", "Engine", "EngineCounters"),
    ".backend": ("SQLiteBackend",),
    ".faults": ("ExecutionError", "ExecutionPolicy", "FaultPlan",
                "InjectedFault", "RequestFailure", "format_failures"),
    ".jobs": ("ENGINE_SCHEMA", "MixRequest", "RunRequest"),
    ".pool": ("SimulationPool",),
    ".queue": ("JOB_STATES", "DispatchReport", "JobQueue", "JobRecord",
               "Lease"),
    ".service": ("QueueWorker", "WorkerReport", "owner_id"),
    ".store": ("ResultStore", "StoreDecodeError", "default_store_path"),
})
