"""Lease-based worker service: the engine's one executor.

:class:`QueueWorker` drains a :class:`~repro.engine.queue.JobQueue`:
it leases jobs under a TTL, heartbeats while simulations run, delivers
each payload (to the Engine's memo/store/journal, or straight to the
shared :class:`~repro.engine.store.ResultStore`), and marks jobs done.
It is the only place where attempts, failures, timeouts and pool
crashes are settled.  The same class serves two deployments:

* **embedded** — every :class:`~repro.engine.api.Engine` batch
  dispatches its misses to a queue and drains it with one of these, in
  process: a fresh ``:memory:`` queue per batch, or the durable file of
  ``--queue PATH``, which the campaign leaves behind as its progress
  record;
* **standalone** — ``repro worker --queue PATH`` runs one per OS
  process; any number of them may point at the same queue file, on the
  strength of the store's benign same-key write races.

Crash semantics: a worker that dies (SIGKILL, OOM, reboot) simply stops
heartbeating.  Its leases expire; any surviving process's
:meth:`~repro.engine.queue.JobQueue.reclaim` requeues them with a
synthetic ``crash`` :class:`~repro.engine.faults.RequestFailure`, and
the attempt budget (the :class:`~repro.engine.faults.ExecutionPolicy`
``max_retries``) bounds how often a poisonous job may kill workers
before it is marked ``failed``.  A worker killed *between* its store
write and its ``complete`` mark costs nothing: the next worker to lease
that key finds the result in the store and completes the job without
re-executing it.

Retry scheduling lives in the queue, not the worker: every lease is
exactly one attempt, and a failed attempt goes back through
``queue.fail`` with the policy's deterministic backoff as ``not_before``
— which is what lets a *different* worker pick up the retry.

The worker executes *jobs*: one lease, or the leases of one lockstep
group (the queue hands a group's pending members out together), run as
one simulation.  A job succeeds or fails as a whole — a fault on any
member fails every member, each with its own failure record — and each
member key settles once.
"""

from __future__ import annotations

import os
import socket
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, CancelledError, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (Callable, Deque, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

from ..obs.metrics import MetricsRegistry
from ..obs.spans import spans_enabled, worker_id
from .faults import ExecutionPolicy, FaultPlan, RequestFailure
from .jobs import decode_result
from .pool import FailureFn, RebuildFn, SimulationPool, run_inline
from .queue import JobQueue, Lease
from .store import StoreDecodeError

#: one settled job: ``("ok", key, result)``, ``("fail", key,
#: RequestFailure)``, or ``("done", key, None)`` for a job that was
#: completed without this worker executing it (its result is already in
#: the store, or another worker finished it).
Settlement = Tuple[str, str, object]


def owner_id(suffix: Optional[str] = None) -> str:
    """A queue-owner identity for this process: ``hostname:pid``.

    Unique per live process on a shared filesystem, and — importantly —
    never reused by the *same* queue once the process dies, so an
    expired lease can always be attributed to a dead owner.
    """
    base = f"{socket.gethostname()}:{os.getpid()}"
    return f"{base}:{suffix}" if suffix else base


@dataclass
class WorkerReport:
    """What one drain of a :class:`QueueWorker` accomplished."""

    owner: str = ""
    leased: int = 0           #: jobs this worker took a lease on
    completed: int = 0        #: jobs executed and marked done
    resumed: int = 0          #: jobs completed from a store hit, no execution
    reclaimed: int = 0        #: expired foreign leases this worker recycled
    released: int = 0         #: innocent jobs returned uncharged
    retried: int = 0          #: failed attempts requeued within budget
    terminal: int = 0         #: failed attempts that exhausted the budget
    failures: List[RequestFailure] = field(default_factory=list)

    def summary(self) -> str:
        text = (f"worker {self.owner}: {self.completed} completed, "
                f"{self.resumed} resumed from store, "
                f"{self.leased} leased")
        if self.reclaimed or self.retried or self.terminal:
            text += (f"; {self.reclaimed} reclaimed, "
                     f"{self.retried} retried, "
                     f"{self.terminal} terminal failures")
        return text


#: journal-event callback: (event_type, **fields)
EmitFn = Callable[..., None]

#: one executed unit: a lease, or the leases of one lockstep group.
Job = Tuple[Lease, ...]


def _job_key(job: Job) -> str:
    """The pool's in-flight key for ``job``: a lone lease's key, else
    the member keys joined, so a regrouped retry never reuses a future
    computed for other members."""
    return "+".join(lease.key for lease in job)

#: why fail-fast cancelled a job.
CANCELLED = ("abandoned after another request's terminal failure "
             "(fail-fast)")


class QueueWorker:
    """Drains a job queue: lease → heartbeat → execute → complete.

    Parameters
    ----------
    queue:
        The :class:`~repro.engine.queue.JobQueue` (or a path to one).
    store:
        Shared :class:`~repro.engine.store.ResultStore`; lets the
        worker resume jobs whose result already landed (crash between
        store write and done mark) and is where the default delivery
        path writes results.
    jobs / pool:
        ``jobs == 1`` without a ``pool`` executes one lease at a time
        inline; otherwise up to ``jobs`` leases run in the
        :class:`~repro.engine.pool.SimulationPool` (created if not
        given), refilled as each finishes, with the policy's
        per-attempt timeout enforced by pool rebuild.
    policy / faults:
        Retry/timeout discipline and deterministic fault injector.  The
        queue carries the attempt count; the policy supplies the
        budget, the backoff and fail-fast, and the injector sees the
        queue's attempt number, so chaos campaigns recover across
        worker processes exactly as they do in-process.
    lease_ttl_s / heartbeat_s / poll_s:
        Lease lifetime, heartbeat period while executing (default
        ``lease_ttl_s / 3``), and the longest idle sleep (an idle
        worker wakes earlier when a retry's backoff runs out).
    on_result:
        ``fn(key, payload) -> result`` for each executed payload (the
        Engine's ``_consume_payload``).  Default: decode-validate,
        write to ``store``, journal a ``request`` event.
    resolved:
        ``fn(key) -> bool``: a leased job whose key is resolved
        completes without executing.  Default: the key is in ``store``.
    on_failure / on_rebuild / emit / metrics:
        The Engine's observability hooks (failure + rebuild notes,
        journal events, metric registry); all optional.
    """

    def __init__(
        self,
        queue,
        *,
        store=None,
        jobs: int = 1,
        pool: Optional[SimulationPool] = None,
        policy: Optional[ExecutionPolicy] = None,
        faults: Optional[FaultPlan] = None,
        lease_ttl_s: float = 30.0,
        heartbeat_s: Optional[float] = None,
        poll_s: float = 0.2,
        owner: Optional[str] = None,
        on_result: Optional[Callable[[str, dict], object]] = None,
        resolved: Optional[Callable[[str], bool]] = None,
        on_failure: Optional[FailureFn] = None,
        on_rebuild: Optional[RebuildFn] = None,
        emit: Optional[EmitFn] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.queue = queue if isinstance(queue, JobQueue) \
            else JobQueue(queue)
        self.store = store
        self.jobs = max(1, int(jobs))
        self._pool = pool
        self._owns_pool = pool is None
        #: no pool: one lease at a time, executed in this process.
        self._inline = self.jobs <= 1 and pool is None
        self.policy = policy if policy is not None \
            else ExecutionPolicy.from_env()
        self.faults = faults if faults is not None \
            else FaultPlan.from_env()
        self.lease_ttl_s = float(lease_ttl_s)
        self.heartbeat_s = (float(heartbeat_s) if heartbeat_s is not None
                            else self.lease_ttl_s / 3.0)
        self.poll_s = float(poll_s)
        self.owner = owner if owner else owner_id()
        self.on_result = on_result
        self.resolved = resolved if resolved is not None \
            else self._in_store
        self.on_failure = on_failure
        self.on_rebuild = on_rebuild
        self.emit = emit
        self.metrics = metrics
        #: what the latest drain accomplished.
        self.report = WorkerReport(owner=self.owner)

    # -- plumbing ----------------------------------------------------------

    @property
    def pool(self) -> SimulationPool:
        if self._pool is None:
            self._pool = SimulationPool(jobs=self.jobs)
        return self._pool

    def _in_store(self, key: str) -> bool:
        return self.store is not None and key in self.store

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter("queue_" + name).inc(amount)

    def _emit(self, type: str, **fields) -> None:
        if self.emit is not None:
            self.emit(type, **fields)

    def _update_depth(self) -> None:
        if self.metrics is None:
            return
        counts = self.queue.counts()
        # jobs pending or leased in the attached queue
        self.metrics.gauge("queue_depth").set(
            counts["pending"] + counts["leased"])

    # -- the drain loop ----------------------------------------------------

    def run(self, watch_keys: Optional[Sequence[str]] = None,
            max_idle_s: Optional[float] = None) -> WorkerReport:
        """Drain like :meth:`settlements`; returns the drain's report."""
        for _ in self.settlements(watch_keys, max_idle_s=max_idle_s):
            pass
        return self.report

    def settlements(
        self,
        watch_keys: Optional[Sequence[str]] = None,
        *,
        max_idle_s: Optional[float] = None,
    ) -> Iterator[Optional[Settlement]]:
        """Drain the queue, yielding each job as it settles.

        The first item is ``None``, yielded once the first jobs are
        leased and submitted: a consumer that primes the stream with
        ``next()`` overlaps its own work with their execution.  Then
        come :data:`Settlement` items; a retried attempt is not one.

        Without ``watch_keys`` the worker settles every job it leases
        and runs until the queue is *drained* (nothing pending or
        leased), outliving other workers' leases so it can reclaim
        them if their owners die.  With ``watch_keys`` it yields one
        settlement per watched key, including keys settled elsewhere,
        and stops once all are settled.  Under ``fail_fast`` a terminal
        failure cancels every watched key still pending.
        ``max_idle_s`` bounds how long the worker idles without a
        lease before giving up.

        Closing the generator early records finished executions and
        releases the other leases; executions still running stay in the
        pool, where the next lease of their key picks them up.
        """
        unsettled = (None if watch_keys is None
                     else dict.fromkeys(watch_keys))
        self.report = WorkerReport(owner=self.owner)
        self._cancelled = False
        slots = 1 if self._inline else self.jobs
        running: Dict[Future, Job] = {}
        deadlines: Dict[Future, float] = {}
        events: Deque[Settlement] = deque()
        try:
            self._refill(slots, running, deadlines, events, unsettled)
            next_beat = time.monotonic() + self.heartbeat_s
            yield None
            idle_since: Optional[float] = None
            while True:
                while events:
                    event = events.popleft()
                    kind, key, _ = event
                    if unsettled is not None:
                        if key not in unsettled:
                            continue
                        del unsettled[key]
                    yield event
                    if (kind == "fail" and self.policy.fail_fast
                            and unsettled and not self._cancelled):
                        events.extend(self._cancel(unsettled))
                if unsettled is not None and not unsettled \
                        and not running:
                    break
                live = [lease.key for job in running.values()
                        for lease in job]
                if live and time.monotonic() >= next_beat:
                    self.queue.heartbeat(live, self.owner,
                                         ttl_s=self.lease_ttl_s)
                    next_beat = time.monotonic() + self.heartbeat_s
                # A consumer that paused between pulls, or a stall after
                # the heartbeat, must not reclaim this worker's own
                # leases as crashes.
                events.extend(self._reclaim(live))
                self._update_depth()
                due = self._refill(slots, running, deadlines, events,
                                   unsettled)
                if events or running:
                    idle_since = None
                if events:
                    continue
                if running:
                    horizon = [next_beat] + list(deadlines.values())
                    if due is not None:
                        horizon.append(time.monotonic() + due
                                       - time.time())
                    timeout = max(0.0, min(horizon)
                                  - time.monotonic()) + 0.01
                    events.extend(self._wait(running, deadlines,
                                             timeout))
                    continue
                events.extend(self._settled_elsewhere(unsettled))
                if events:
                    continue
                if unsettled is None and self.queue.drained():
                    break
                if max_idle_s is not None:
                    if idle_since is None:
                        idle_since = time.monotonic()
                    elif time.monotonic() - idle_since >= max_idle_s:
                        break
                delay = self.poll_s
                if due is not None:
                    delay = min(delay, max(0.0, due - time.time()))
                time.sleep(delay)
            self._update_depth()
        finally:
            self._abandon(running)
            if self._owns_pool and self._pool is not None:
                self._pool.close()
                self._pool = None

    def _refill(self, slots: int, running: Dict[Future, Job],
                deadlines: Dict[Future, float],
                events: Deque[Settlement],
                unsettled: Optional[dict]) -> Optional[float]:
        """Lease jobs into every free slot and start them.

        Returns the wall-clock time the next pending job becomes
        leasable when slots are left free (a retry still backing off),
        else None.  Stops leasing once every watched key is settled or
        fail-fast has cancelled the batch.
        """
        free = slots - len(running)
        if free <= 0 or self._cancelled or (
                unsettled is not None and not unsettled):
            return None
        leases = self.queue.lease(self.owner, ttl_s=self.lease_ttl_s,
                                  limit=free)
        if leases:
            self.report.leased += len(leases)
            self._count("leased", len(leases))
            self._emit("lease", owner=self.owner, count=len(leases),
                       keys=[lease.key for lease in leases])
        jobs: Dict[str, List[Lease]] = {}
        for lease in leases:
            if self.resolved(lease.key):
                # The crash window between a dead worker's store write
                # and its done mark: a lookup, not a simulation.
                self.queue.complete(lease.key, self.owner)
                self.report.resumed += 1
                self._count("resumed")
                events.append(("done", lease.key, None))
                continue
            jobs.setdefault(lease.group or lease.key, []).append(lease)
        for job in jobs.values():
            if self._inline:
                future: Future = Future()  # executed by _wait
            else:
                future = self.pool.submit(
                    _job_key(job), [lease.request for lease in job],
                    faults=self.faults,
                    attempts=[lease.attempt for lease in job])
                if self.policy.timeout_s is not None:
                    deadlines[future] = (time.monotonic()
                                         + self.policy.timeout_s)
            running[future] = tuple(job)
        return self.queue.next_due() if len(jobs) < free else None

    def _wait(self, running: Dict[Future, Job],
              deadlines: Dict[Future, float],
              timeout: float) -> List[Settlement]:
        """Settle what finishes within ``timeout``.

        Inline, that is the one leased job, executed now.  In the pool,
        a dead worker process or an expired deadline costs a pool
        rebuild (ProcessPoolExecutor cannot cancel one task): expired
        attempts fail with ``timeout``, finished ones settle normally,
        and the innocent rest are released uncharged.
        """
        if self._inline:
            [(future, job)] = running.items()
            run_inline([lease.request for lease in job], spans_enabled(),
                       self.faults, [lease.attempt for lease in job],
                       future)
            done = {future}
        else:
            done, _ = wait(set(running), timeout=timeout,
                           return_when=FIRST_COMPLETED)
        events: List[Settlement] = []
        crashed = False
        for future in done:
            job = running.pop(future)
            deadlines.pop(future, None)
            settled, broke = self._consume(future, job)
            events.extend(settled)
            crashed = crashed or broke
        now = time.monotonic()
        expired = {future for future, due in deadlines.items()
                   if due <= now and not future.done()}
        if not crashed and not expired:
            return events
        survivors = list(running.items())
        finished = {future for future, _ in survivors if future.done()}
        running.clear()
        deadlines.clear()
        self._rebuild_pool()
        for future, job in survivors:
            if future in expired:
                events.extend(self._fail(
                    job, "timeout",
                    f"attempt exceeded {self.policy.timeout_s}s "
                    f"wall-clock budget"))
            elif future in finished:
                events.extend(self._consume(future, job)[0])
            else:
                for lease in job:
                    self.queue.release(lease.key)
                self.report.released += len(job)
                self._count("released", len(job))
        return events

    def _rebuild_pool(self) -> None:
        self.pool.rebuild()
        if self.pool.rebuilds > self.policy.max_rebuilds:
            self.pool.degraded = True
        if self.on_rebuild is not None:
            self.on_rebuild(self.pool.rebuilds, self.pool.degraded)

    # -- settling one job --------------------------------------------------

    def _consume(self, future: Future,
                 job: Job) -> Tuple[List[Settlement], bool]:
        """Settle one finished job; the flag is True when the pool
        crashed under it."""
        if self._pool is not None:
            self._pool.discard(_job_key(job))
        try:
            payloads = future.result(timeout=0)
        except BrokenProcessPool as exc:
            return self._fail(job, "crash",
                              str(exc) or "worker process died"), True
        except CancelledError:
            return self._fail(job, "crash",
                              "worker pool died mid-flight"), True
        except StoreDecodeError as exc:
            return self._fail(job, "corrupt", str(exc), exc=exc), False
        except Exception as exc:
            return self._fail(job, "exception", str(exc),
                              exc=exc), False
        try:
            results = self._deliver(job, payloads)
        except StoreDecodeError as exc:
            return self._fail(job, "corrupt", str(exc), exc=exc), False
        settled: List[Settlement] = []
        for lease, result in zip(job, results):
            self.queue.complete(lease.key, self.owner)
            settled.append(("ok", lease.key, result))
        self.report.completed += len(job)
        self._count("completed", len(job))
        return settled, False

    def _deliver(self, job: Job, payloads: List[dict]) -> list:
        """Route one executed job's payloads to their consumer.

        Raises :class:`~repro.engine.store.StoreDecodeError` when a
        payload fails validation (the ``corrupt`` failure path); a
        group's payloads are all validated before any is delivered, so
        a group is delivered whole or not at all.
        """
        if len(job) > 1:
            for payload in payloads:
                decode_result(payload)
        return [self._deliver_one(lease.key, payload)
                for lease, payload in zip(job, payloads)]

    def _deliver_one(self, key: str, payload: dict) -> object:
        if self.on_result is not None:
            return self.on_result(key, payload)
        obs = payload.pop("_obs", None) or {}
        result = decode_result(payload)  # validates; raises StoreDecodeError
        if self.store is not None:
            self.store.put(key, payload)
        group = {"group": obs["group"]} if "group" in obs else {}
        self._emit("request", key=key, outcome="executed",
                   kind=payload.get("kind"), wall_s=obs.get("wall_s"),
                   worker=obs.get("worker"), spans=obs.get("spans") or [],
                   **group)
        return result

    def _fail(self, job: Job, kind: str, error: str,
              exc: Optional[BaseException] = None) -> List[Settlement]:
        """Record one failed attempt of every member of ``job``; a
        settlement for each member whose failure is terminal."""
        settled: List[Settlement] = []
        for lease in job:
            attempts = lease.attempt + 1
            if exc is not None:
                failure = RequestFailure.from_exception(
                    lease.key, exc, kind=kind, worker=worker_id(),
                    attempts=attempts)
            else:
                failure = RequestFailure(key=lease.key, kind=kind,
                                         error=error, worker=worker_id(),
                                         attempts=attempts)
            state = self.queue.fail(
                lease.key, failure,
                backoff_s=self.policy.backoff(lease.key, attempts),
                retry=not self._cancelled)
            retrying = state == "pending"
            self._count("failed_attempts")
            if self.on_failure is not None:
                self.on_failure(failure, retrying)
            if retrying:
                self.report.retried += 1
                continue
            self.report.terminal += 1
            self.report.failures.append(failure)
            settled.append(("fail", lease.key, failure))
        return settled

    def _cancel(self, unsettled: dict) -> List[Settlement]:
        """Fail-fast: cancel every watched job still pending."""
        self._cancelled = True
        failures = self.queue.cancel(list(unsettled), CANCELLED)
        for failure in failures:
            if self.on_failure is not None:
                self.on_failure(failure, False)
            self.report.failures.append(failure)
        return [("fail", failure.key, failure) for failure in failures]

    def _reclaim(self, live: Sequence[str]) -> List[Settlement]:
        """Requeue expired leases other than this worker's ``live`` ones;
        settle the ones out of budget."""
        requeued, failed = self.queue.reclaim(live)
        if not requeued and not failed:
            return []
        self.report.reclaimed += len(requeued) + len(failed)
        self._count("reclaimed", len(requeued) + len(failed))
        self._emit("reclaim", owner=self.owner,
                   requeued=[f.key for f in requeued],
                   failed=[f.key for f in failed])
        if self.on_failure is not None:
            for failure in requeued:
                self.on_failure(failure, True)
            for failure in failed:
                self.on_failure(failure, False)
        self.report.failures.extend(failed)
        return [("fail", failure.key, failure) for failure in failed]

    def _settled_elsewhere(
            self, unsettled: Optional[dict]) -> List[Settlement]:
        """Watched keys another worker (or dispatch, from the store)
        already brought to ``done`` or ``failed``."""
        if not unsettled:
            return []
        states = self.queue.states(list(unsettled))
        events: List[Settlement] = []
        for key in unsettled:
            state = states.get(key)
            if state == "done":
                events.append(("done", key, None))
            elif state == "failed":
                job = self.queue.get(key)
                events.append(("fail", key, RequestFailure(**job.error)))
        return events

    def _abandon(self, running: Dict[Future, Job]) -> None:
        """Settle a drain that stopped early.

        Finished executions are recorded; every other lease goes back
        to the queue uncharged.  Futures still running stay in the
        pool.  Best effort: this can run during generator GC, after the
        engine closed its store, where dropping a cache write is safe
        and raising is not.
        """
        for future, job in running.items():
            try:
                if future.done() and self._pool is not None:
                    self._pool.discard(_job_key(job))
                if future.done() and future.exception() is None:
                    self._deliver(job, future.result())
                    for lease in job:
                        self.queue.complete(lease.key, self.owner)
                else:
                    for lease in job:
                        self.queue.release(lease.key)
            # Teardown harvest: a failed run has nothing to salvage,
            # and its job is retried by whoever leases it next.
            except Exception:  # repro: allow(no-bare-except)
                continue
        running.clear()
