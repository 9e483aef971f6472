"""Lease-based worker service: the engine's one executor.

:class:`QueueWorker` drains a :class:`~repro.engine.queue.JobQueue`
into its :class:`~repro.engine.api.Engine`: it leases jobs under a TTL,
heartbeats while simulations run, hands each executed job's payloads
to the engine, which decodes them once and records them in its memo,
store and journal, and marks jobs done.  It is the only place where
attempts, failures, timeouts and pool crashes are settled.  A worker
always comes from :meth:`~repro.engine.api.Engine.worker`, wherever it
runs:

* every Engine batch dispatches its misses to a queue and drains it
  with one, in process: a fresh ``:memory:`` queue per batch, or the
  durable file of ``--queue PATH``, which the campaign leaves behind as
  its progress record;
* ``repro worker --queue PATH`` runs one per OS process, from an engine
  that only drains; any number of them may point at the same queue
  file, on the strength of the store's benign same-key write races.

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
from typing import (TYPE_CHECKING, Deque, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

from ..obs.spans import spans_enabled, worker_id
from .faults import RequestFailure
from .pool import run_inline
from .queue import JobQueue, Lease
from .store import StoreDecodeError

if TYPE_CHECKING:  # the engine imports this module where it drains
    from .api import Engine

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
    """Drains a job queue into its engine: lease → heartbeat → execute
    → complete.

    The ``engine`` supplies the store, the pool and ``jobs``, the
    resilience policy, the fault plan and the lease TTL.  ``jobs == 1``
    without a pool executes one lease at a time inline; otherwise up to
    ``jobs`` leases run in the engine's
    :class:`~repro.engine.pool.SimulationPool`, refilled as each
    finishes, with the policy's per-attempt timeout enforced by pool
    rebuild.  The queue carries the attempt count; the policy supplies
    the budget, the backoff and fail-fast, and the fault plan sees the
    queue's attempt number, so chaos campaigns recover across worker
    processes exactly as they do in-process.

    Each executed payload, failure and pool rebuild is recorded by the
    engine, and a leased key the engine has already resolved completes
    without executing.  Only the engine's own (durable) ``queue`` is
    journaled and metered: a batch's ``:memory:`` queue leaves the
    journal and the counters free of queue events.
    """

    def __init__(self, engine: Engine, queue: JobQueue) -> None:
        self.engine = engine
        self.queue = queue
        #: heartbeat period while executing.
        self.heartbeat_s = engine.lease_ttl_s / 3.0
        #: the longest idle sleep; an idle worker wakes earlier when a
        #: retry's backoff runs out.
        self.poll_s = 0.2
        self.owner = owner_id()
        #: the engine's pool; None executes inline.
        self._pool = engine.pool if engine.parallel else None
        self._durable = queue is engine.queue
        #: what the latest drain accomplished.
        self.report = WorkerReport(owner=self.owner)

    # -- plumbing ----------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        if self._durable and amount:
            self.engine.metrics.counter("queue_" + name).inc(amount)

    def _emit(self, type: str, **fields) -> None:
        if self._durable:
            self.engine.journal_event(type, **fields)

    def _update_depth(self) -> None:
        if not self._durable:
            return
        counts = self.queue.counts()
        # jobs pending or leased in the attached queue
        self.engine.metrics.gauge("queue_depth").set(
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
        slots = 1 if self._pool is None else self.engine.jobs
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
                    if (kind == "fail"
                            and self.engine.resilience.fail_fast
                            and unsettled and not self._cancelled):
                        events.extend(self._cancel(unsettled))
                if unsettled is not None and not unsettled \
                        and not running:
                    break
                live = [lease.key for job in running.values()
                        for lease in job]
                if live and time.monotonic() >= next_beat:
                    self.queue.heartbeat(live, self.owner,
                                         ttl_s=self.engine.lease_ttl_s)
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
        leases = self.queue.lease(self.owner,
                                  ttl_s=self.engine.lease_ttl_s, limit=free)
        if leases:
            self.report.leased += len(leases)
            self._count("leased", len(leases))
            self._emit("lease", owner=self.owner, count=len(leases),
                       keys=[lease.key for lease in leases])
        jobs: Dict[str, List[Lease]] = {}
        for lease in leases:
            if self.engine._resolved(lease.key):
                # The crash window between a dead worker's store write
                # and its done mark: a lookup, not a simulation.
                self.queue.complete(lease.key, self.owner)
                self.report.resumed += 1
                self._count("resumed")
                events.append(("done", lease.key, None))
                continue
            jobs.setdefault(lease.group or lease.key, []).append(lease)
        timeout_s = self.engine.resilience.timeout_s
        for job in jobs.values():
            if self._pool is None:
                future: Future = Future()  # executed by _wait
            else:
                future = self._pool.submit(
                    _job_key(job), [lease.request for lease in job],
                    faults=self.engine.faults,
                    attempts=[lease.attempt for lease in job])
                if timeout_s is not None:
                    deadlines[future] = time.monotonic() + timeout_s
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
        if self._pool is None:
            [(future, job)] = running.items()
            run_inline([lease.request for lease in job], spans_enabled(),
                       self.engine.faults,
                       [lease.attempt for lease in job], future)
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
                    f"attempt exceeded {self.engine.resilience.timeout_s}s "
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
        pool = self._pool
        pool.rebuild()
        if pool.rebuilds > self.engine.resilience.max_rebuilds:
            pool.degraded = True
        self.engine._note_rebuild(pool.rebuilds, pool.degraded)

    # -- settling one job --------------------------------------------------

    def _consume(self, future: Future,
                 job: Job) -> Tuple[List[Settlement], bool]:
        """Settle one finished job; the flag is True when the pool
        crashed under it.

        The engine decodes every member's payload before it records
        any, so a payload that fails validation fails the whole job as
        ``corrupt`` and records none of it.
        """
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
            results = self.engine._consume_payloads(
                [lease.key for lease in job], payloads)
        except StoreDecodeError as exc:
            return self._fail(job, "corrupt", str(exc), exc=exc), False
        settled: List[Settlement] = []
        for lease, result in zip(job, results):
            self.queue.complete(lease.key, self.owner)
            settled.append(("ok", lease.key, result))
        self.report.completed += len(job)
        self._count("completed", len(job))
        return settled, False

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
                backoff_s=self.engine.resilience.backoff(lease.key,
                                                         attempts),
                retry=not self._cancelled)
            retrying = state == "pending"
            self._count("failed_attempts")
            self.engine._note_failure(failure, retrying)
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
            self.engine._note_failure(failure, False)
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
        for failure in requeued:
            self.engine._note_failure(failure, True)
        for failure in failed:
            self.engine._note_failure(failure, False)
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
                    self.engine._consume_payloads(
                        [lease.key for lease in job], future.result())
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
