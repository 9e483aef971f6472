"""Batch execution façade: memo → store → queue job.

:class:`Engine` is what the experiment harness talks to.  Every request
resolves through three tiers:

1. an in-memory memo (hits are free and shared across a whole figure
   campaign),
2. the persistent :class:`~repro.engine.store.ResultStore` (hits replay a
   previous process's work), and
3. execution: every miss is a queue job.  The misses of a batch are
   dispatched to a :class:`~repro.engine.queue.JobQueue` — a fresh
   ``:memory:`` one unless the engine was given ``queue=PATH`` — and
   drained by an embedded :class:`~repro.engine.service.QueueWorker`,
   inline when ``jobs == 1`` and across a
   :class:`~repro.engine.pool.SimulationPool` otherwise.  Misses that
   share a lockstep group key (Athena runs differing only in the agent
   seed, :func:`~repro.engine.jobs.group_key`) run as one job: one
   simulation, fanned out into one payload per member key.  Each
   result is written back to the memo and the store as it settles.

Every batch settles through one stream, :meth:`Engine.as_completed`;
:meth:`Engine.run_many` and the SDK's ``Session`` gather it.

The engine counts hits and misses per tier (:class:`EngineCounters`,
a typed view over a :class:`~repro.obs.metrics.MetricsRegistry`);
``repro figures``/``repro sweep`` print the summary so a warm rerun can
be *verified* to have executed zero simulations.

With telemetry active (``telemetry=PATH`` or ``REPRO_TELEMETRY``) the
engine additionally appends one event per resolved request to an
append-only JSONL run journal (:class:`~repro.obs.journal.RunJournal`):
content key, the tier that served it, wall time, worker id, and phase
spans — worker-side spans ride back on the result payload and merge
into the parent exactly once, the same mechanism as the trace-cache
delta.  A lockstep group's spans ride on its leader's event only, and
every member's event names the leader as ``group``.  ``repro obs
summary`` aggregates the journal offline.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Union)

from ..obs.metrics import MetricsRegistry
from ..obs.spans import collector, set_enabled
from ..sim.region import MultiCoreResult
from .faults import (ExecutionError, ExecutionPolicy, FaultPlan,
                     RequestFailure)
from .jobs import Request, Result, decode_result, lockstep_groups
from .store import ResultStore, StoreDecodeError

if TYPE_CHECKING:  # imported where a miss is dispatched or a journal opened
    from ..obs.journal import RunJournal
    from .pool import ProgressFn, SimulationPool
    from .queue import JobQueue
    from .service import QueueWorker


@dataclass(frozen=True)
class Completed:
    """One settled request from :meth:`Engine.as_completed`.

    A request that exhausted its retries settles too: ``result`` is
    ``None`` and ``failure`` carries the structured
    :class:`~repro.engine.faults.RequestFailure` — the stream never
    raises mid-iteration for an execution failure.
    """

    index: int          #: position in the submitted request sequence
    key: str            #: the request's content-hash key
    request: Request
    result: Optional[Result]
    #: False when this engine executed the result; True when the memo
    #: or the store served it, or another process settled it.
    cached: bool
    failure: Optional[RequestFailure] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def _counter_view(field: str, help: str) -> property:
    """An int-typed read/write view over one registry counter."""
    metric = "engine_" + field

    def _get(self) -> int:
        return int(self.registry.counter(metric).value)

    def _set(self, value) -> None:
        self.registry.counter(metric).value = float(value)

    return property(_get, _set, doc=help)


def raise_failures(settled: Iterable[Completed]) -> None:
    """Raise :class:`~repro.engine.faults.ExecutionError` with each
    failed key's failure, if any of ``settled`` failed."""
    failures = {done.key: done.failure for done in settled
                if done.failure is not None}
    if failures:
        raise ExecutionError(list(failures.values()))


class EngineCounters:
    """Hit/miss accounting for one engine lifetime.

    The fields are typed views over an :class:`~repro.obs.metrics.
    MetricsRegistry` (the engine's), so the same numbers are readable
    three ways: the attributes below, :meth:`to_dict` for
    machine-readable output (the run journal's final ``summary``
    event), and the registry's Prometheus export.

    ``trace_hits``/``trace_builds`` aggregate the compiled-trace cache
    activity of every executed simulation — including pool workers,
    whose per-request deltas ride back on the result payload — so a
    warm engine run can be *verified* to have regenerated no traces.
    """

    _FIELDS = ("memo_hits", "store_hits", "executed",
               "trace_hits", "trace_builds",
               "retries", "timeouts", "rebuilds", "failures")

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        for field in self._FIELDS:  # pre-create: exports stay complete
            self.registry.counter("engine_" + field)

    memo_hits = _counter_view(
        "memo_hits", "results served from the in-memory memo")
    store_hits = _counter_view(
        "store_hits", "results replayed from the persistent store")
    executed = _counter_view(
        "executed", "simulations actually executed")
    trace_hits = _counter_view(
        "trace_hits", "compiled-trace cache hits across all workers")
    trace_builds = _counter_view(
        "trace_builds", "traces generated from specs across all workers")
    retries = _counter_view(
        "retries", "failed request attempts that were retried")
    timeouts = _counter_view(
        "timeouts", "request attempts cancelled on wall-clock timeout")
    rebuilds = _counter_view(
        "rebuilds", "worker-pool teardowns and rebuilds")
    failures = _counter_view(
        "failures", "requests whose retries were exhausted (terminal)")

    @property
    def total(self) -> int:
        return self.memo_hits + self.store_hits + self.executed

    def apply_trace_delta(self, delta) -> None:
        """Fold one worker payload's trace-cache delta in."""
        if delta:
            self.trace_hits += delta.get("hits", 0)
            self.trace_builds += delta.get("builds", 0)

    def to_dict(self) -> dict:
        """Machine-readable snapshot (journal ``summary`` events)."""
        out = {field: getattr(self, field) for field in self._FIELDS}
        out["total"] = self.total
        return out

    def summary(self) -> str:
        text = (
            f"engine: {self.executed} simulations executed, "
            f"{self.store_hits} store hits, {self.memo_hits} memo hits; "
            f"trace cache: {self.trace_hits} hits, "
            f"{self.trace_builds} builds"
        )
        if self.retries or self.timeouts or self.rebuilds or self.failures:
            text += (
                f"; resilience: {self.retries} retries, "
                f"{self.timeouts} timeouts, "
                f"{self.rebuilds} pool rebuilds, "
                f"{self.failures} failures"
            )
        return text


class Engine:
    """Deduplicating, caching, parallel executor of simulation requests."""

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        jobs: int = 1,
        pool: Optional[SimulationPool] = None,
        progress: Optional[ProgressFn] = None,
        telemetry: Union[RunJournal, str, os.PathLike, None] = None,
        resilience: Optional[ExecutionPolicy] = None,
        faults: Optional[FaultPlan] = None,
        queue: Union[JobQueue, str, os.PathLike, None] = None,
        lease_ttl_s: float = 30.0,
    ) -> None:
        self.store = store
        # -- durable queue: misses go to this JobQueue instead of a fresh
        #    in-memory one, and any number of external `repro worker`
        #    processes may drain it alongside the embedded worker.  The
        #    queue outlives this process, which is what makes a killed
        #    campaign resumable.
        self._owns_queue = isinstance(queue, (str, os.PathLike))
        if self._owns_queue:
            from .queue import JobQueue

            queue = JobQueue(queue)
        self.queue: Optional[JobQueue] = queue
        self.lease_ttl_s = float(lease_ttl_s)
        self.jobs = max(1, int(jobs)) if pool is None else (pool.jobs or 1)
        self._pool = pool
        #: retry/timeout discipline; environment-derived by default
        #: (REPRO_MAX_RETRIES / REPRO_TIMEOUT_S).
        self.resilience = resilience if resilience is not None \
            else ExecutionPolicy.from_env()
        #: deterministic fault-injection plan (REPRO_FAULTS); None in
        #: normal operation.
        self.faults = faults if faults is not None else FaultPlan.from_env()
        self._memo: Dict[str, Result] = {}
        #: every engine metric lives here; the counters are typed views.
        self.metrics = MetricsRegistry()
        self.counters = EngineCounters(self.metrics)
        #: default progress callback for batches that don't pass one.
        self.progress = progress
        # -- run journal: explicit argument, else the environment -----------
        if telemetry is None:
            telemetry = os.environ.get("REPRO_TELEMETRY") or None
        self._journal: Optional[RunJournal] = None
        self._owns_journal = False
        if telemetry is not None:
            from ..obs.journal import RunJournal, provenance

            if isinstance(telemetry, RunJournal):
                self._journal = telemetry
            else:
                self._journal = RunJournal(telemetry)
                self._owns_journal = True
            set_enabled(True)  # spans on; workers inherit at submit time
            self._journal.event("start", pid=os.getpid(), jobs=self.jobs,
                                **provenance())

    # -- plumbing ----------------------------------------------------------

    @property
    def parallel(self) -> bool:
        return self.jobs > 1 or self._pool is not None

    @property
    def pool(self) -> SimulationPool:
        if self._pool is None:
            from .pool import SimulationPool

            self._pool = SimulationPool(jobs=self.jobs)
        return self._pool

    def _lookup(self, key: str) -> Optional[Result]:
        """Resolve ``key`` through memo then store; None on miss."""
        t0 = time.perf_counter() if self._journal is not None else 0.0
        cached = self._memo.get(key)
        if cached is not None:
            self.counters.memo_hits += 1
            self._journal_hit(key, "memo", cached, t0)
            return cached
        if self.store is not None:
            payload = self.store.get(key, summary=True)
            if payload is not None:
                try:
                    result = decode_result(payload)
                except StoreDecodeError:
                    self.store.delete(key)
                else:
                    self.counters.store_hits += 1
                    self._memo[key] = result
                    self._journal_hit(key, "store", result, t0)
                    return result
        return None

    # -- telemetry ---------------------------------------------------------

    @property
    def telemetry_active(self) -> bool:
        return self._journal is not None

    def journal_event(self, type: str, **fields) -> None:
        """Append one event to the run journal (no-op when inactive).

        Higher layers use this for parent-side phases that are not tied
        to a single request (e.g. the Session's ``plan`` span).
        """
        if self._journal is not None:
            self._journal.event(type, **fields)

    def _journal_hit(self, key: str, outcome: str, result: Result,
                     t0: float) -> None:
        if self._journal is None:
            return
        kind = "mix" if isinstance(result, MultiCoreResult) else "run"
        self._journal.event(
            "request", key=key, outcome=outcome, kind=kind,
            wall_s=time.perf_counter() - t0, worker=None, spans=[],
        )

    def _consume_payloads(self, keys: Sequence[str],
                          payloads: Sequence[dict]) -> List[Result]:
        """Record one executed job's payloads, one per key, each once.

        Every payload is decoded before any is recorded: one that fails
        validation raises :exc:`~repro.engine.store.StoreDecodeError`
        (the worker's ``corrupt`` failure) and leaves the whole job
        unrecorded.  A key an interleaved ``run_many()``/
        ``as_completed()`` already recorded is neither decoded nor
        recorded again: that would double-count ``executed`` and
        rewrite the store.  Its trace-cache delta and spans are still
        harvested, and the trace-cache delta of a job that fails to
        decode too, so those counters reflect work that really happened.
        """
        obs = [payload.pop("_obs", None) or {} for payload in payloads]
        for seen in obs:
            self.counters.apply_trace_delta(seen.get("trace_cache"))
        recorded = {key: self._memo[key] for key in keys if key in self._memo}
        results = [recorded[key] if key in recorded else decode_result(payload)
                   for key, payload in zip(keys, payloads)]
        for key, payload, result, seen in zip(keys, payloads, results, obs):
            spans = seen.get("spans") or []
            if spans:
                # Worker-side spans merge into the parent collector here
                # — and only here, so each executed request contributes
                # its spans exactly once.
                collector().merge(spans)
            if key in recorded:
                continue
            if self.store is not None:
                if self._journal is not None:
                    with collector().span("store_write") as write_span:
                        self.store.put(key, payload)
                    if write_span is not None:
                        spans = spans + [write_span]
                else:
                    self.store.put(key, payload)
            self._memo[key] = result
            self.counters.executed += 1
            if self._journal is not None:
                group = {"group": seen["group"]} if "group" in seen else {}
                self._journal.event(
                    "request", key=key, outcome="executed",
                    kind=payload.get("kind"), wall_s=seen.get("wall_s"),
                    worker=seen.get("worker"), spans=spans, **group,
                )
        return results

    def _note_failure(self, failure: RequestFailure,
                      retrying: bool) -> None:
        """Count and journal one failure observation."""
        if retrying:
            self.counters.retries += 1
        else:
            self.counters.failures += 1
        if failure.kind == "timeout":
            self.counters.timeouts += 1
        if self._journal is not None:
            self._journal.event(
                "failure", key=failure.key, kind=failure.kind,
                attempt=failure.attempts, retrying=retrying,
                error=failure.error, exc_type=failure.exc_type,
                worker=failure.worker,
            )

    def _note_rebuild(self, rebuilds: int, degraded: bool) -> None:
        """Count and journal one worker-pool rebuild."""
        self.counters.rebuilds += 1
        if self._journal is not None:
            self._journal.event("rebuild", rebuilds=rebuilds,
                                degraded=degraded)

    # -- execution ---------------------------------------------------------

    def worker(self, queue: Optional[JobQueue] = None) -> QueueWorker:
        """A :class:`~repro.engine.service.QueueWorker` that drains
        ``queue`` (default: the engine's durable queue) into this
        engine.

        Executed payloads land in the memo, the store and the journal
        once per key, and failures and pool rebuilds are counted here.
        Only the durable queue is journaled and metered: queue-less
        runs keep their journal and counters free of queue events.
        """
        from .service import QueueWorker

        return QueueWorker(self, queue if queue is not None else self.queue)

    def _resolve_misses(
        self,
        pairs: Sequence[Tuple[str, Request]],
        progress: Optional[ProgressFn],
    ) -> Iterator[Optional[Tuple[str, Optional[Result],
                                 Optional[RequestFailure], bool]]]:
        """Execute cache misses as queue jobs; yield each settlement.

        The misses go to the engine's durable queue, else to a fresh
        ``:memory:`` one that lives as long as this generator, and
        :meth:`worker` drains it.  Misses sharing a lockstep group key
        are dispatched as one group and run as one job.
        Dispatch is idempotent, so a killed campaign on a durable queue
        resumes where it stopped, alongside any ``repro worker``.

        Primed like the worker's stream (the first item is ``None``),
        then one ``(key, result, failure, cached)`` per miss in
        settlement order, each reported to ``progress`` as
        ``(settled, len(pairs), key)``.  ``cached`` is True for a job
        settled elsewhere, whose result is replayed from the store.
        Successes land in the memo and store as they settle, so a
        rerun after a failure resumes warm.
        """
        from .queue import JobQueue

        queue = self.queue if self.queue is not None \
            else JobQueue(":memory:")
        try:
            report = queue.dispatch(
                pairs, store=self.store,
                max_retries=self.resilience.max_retries,
                groups=lockstep_groups(pairs))
            if queue is self.queue:
                self.metrics.counter("queue_dispatched").inc(
                    len(report.enqueued))
                self.journal_event(
                    "dispatch", queue=str(queue.path),
                    enqueued=len(report.enqueued),
                    done_from_store=len(report.done_from_store),
                    already_done=len(report.already_done),
                    already_queued=len(report.already_queued),
                    resumed_failed=len(report.resumed_failed))
            settlements = self.worker(queue).settlements(
                [key for key, _ in pairs])
            try:
                yield next(settlements)
                for settled, (kind, key, value) in enumerate(settlements,
                                                             1):
                    cached = kind == "done"
                    if cached:
                        kind, value = self._settle_done(key)
                    if progress is not None:
                        progress(settled, len(pairs), key)
                    if kind == "ok":
                        yield key, value, None, cached
                    else:
                        yield key, None, value, cached
            finally:
                settlements.close()
        finally:
            if queue is not self.queue:
                queue.close()

    def _resolved(self, key: str) -> bool:
        """Is ``key``'s result already recorded, here or in the store?"""
        return key in self._memo or (self.store is not None
                                     and key in self.store)

    def _settle_done(self, key: str) -> Tuple[str, object]:
        """Replay a job completed without this engine executing it."""
        result = self._memo.get(key)
        if result is None:
            result = self._lookup(key)
        if result is not None:
            return "ok", result
        return "fail", RequestFailure(
            key=key, kind="crash",
            error="job left unresolved in the queue (state=done)")

    def run(self, request: Request) -> Result:
        """Resolve one request; a miss executes as a one-job batch.

        A single request is not a batch: it reports no progress.
        Raises :class:`~repro.engine.faults.ExecutionError` when the
        request still fails after the resilience policy's retries.
        """
        return self.run_many([request], progress=lambda *_: None)[0]

    def run_many(
        self,
        requests: Sequence[Request],
        progress: Optional[ProgressFn] = None,
    ) -> List[Result]:
        """Resolve a batch: :meth:`as_completed`, gathered by index.

        Duplicate requests are resolved once; the returned list matches
        the input order (including duplicates).

        Raises :class:`~repro.engine.faults.ExecutionError` when any
        request exhausts its retries — but only once the stream has
        ended, after every successful sibling has been recorded to the
        memo/store, so the failed campaign resumes warm.
        """
        settled: List[Optional[Completed]] = [None] * len(requests)
        for done in self.as_completed(requests, progress):
            settled[done.index] = done
        raise_failures(settled)
        return [done.result for done in settled]

    def as_completed(
        self,
        requests: Sequence[Request],
        progress: Optional[ProgressFn] = None,
    ) -> Iterator[Completed]:
        """The engine's one settlement stream: yield each request as it
        settles instead of waiting on a batch.

        Yields one :class:`Completed` per submitted request.  Cache hits
        (memo/store) are yielded first, in submission order; misses
        follow in settlement order — the pool's order when parallel,
        submission order when serial.  Duplicate requests all yield,
        sharing one execution.  Every miss is recorded to the memo/store
        as it settles, so a consumer that abandons the iterator early
        keeps whatever already finished.

        Execution failures do not raise mid-stream: a request whose
        retries are exhausted yields a :class:`Completed` with
        ``result=None`` and a populated ``failure``.
        """
        if progress is None:
            progress = self.progress
        keyed: List[Tuple[str, Request]] = [(r.key(), r) for r in requests]
        miss_indices: Dict[str, List[int]] = {}
        hits: List[Tuple[int, Result]] = []
        for index, (key, _) in enumerate(keyed):
            if key in miss_indices:
                miss_indices[key].append(index)
                continue
            cached = self._lookup(key)
            if cached is not None:
                hits.append((index, cached))
            else:
                miss_indices[key] = [index]
        settlements = self._resolve_misses(
            [keyed[indices[0]] for indices in miss_indices.values()],
            progress) if miss_indices else None
        # Every yield stays inside the try: abandoning the iterator at
        # any point closes the settlement stream, which records the
        # executions that already finished.
        try:
            if settlements is not None:
                # misses run while the consumer processes the hits
                next(settlements)
            for index, result in hits:
                key, request = keyed[index]
                yield Completed(index, key, request, result, cached=True)
            for key, result, failure, cached in settlements or ():
                for index in miss_indices[key]:
                    yield Completed(index, key, keyed[index][1], result,
                                    cached, failure)
        finally:
            if settlements is not None:
                settlements.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._close_journal()
        if self.queue is not None and self._owns_queue:
            self.queue.close()
            self.queue = None
        if self.store is not None:
            self.store.close()

    def _close_journal(self) -> None:
        if self._journal is None:
            return
        # The machine-readable counters are the journal's final event,
        # so an offline consumer never needs the formatted summary()
        # string.
        self._journal.event("summary", counters=self.counters.to_dict(),
                            metrics=self.metrics.to_dict())
        if self._owns_journal:
            self._journal.close()
        self._journal = None
        # Re-derive global span collection from the environment so a
        # closed telemetry engine does not leave it on process-wide.
        set_enabled(bool(os.environ.get("REPRO_TELEMETRY")))

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

