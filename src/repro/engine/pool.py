"""Process-pool wrapper and the worker entry point for simulations.

:func:`_execute_job` runs one job — a request, or a lockstep group of
requests (:func:`~repro.engine.jobs.execute_group`) — and returns its
*serialized* result payloads rather than the live objects: the parent
decodes them through the same codec the store uses, so pooled, inline
and store-replayed runs traverse one code path and stay bit-identical.

:class:`SimulationPool` wraps a
:class:`concurrent.futures.ProcessPoolExecutor`: it deduplicates
in-flight requests by content key, rebuilds a broken executor, and,
once its rebuild budget is spent, degrades to inline execution in the
parent process.  It has no retry or settlement logic of its own.
Every miss is a job in a :class:`~repro.engine.queue.JobQueue`
(``:memory:`` unless the engine was given ``queue=PATH``), and the
:class:`~repro.engine.service.QueueWorker` that drains it is the one
place where attempts, failures and timeouts are settled.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence

from ..obs.spans import collector, set_enabled, spans_enabled
from .faults import FaultPlan
from .jobs import (Request, encode_result, execute_group,
                   load_execution_modules)

#: progress callback: (settled_count, total, request_key)
ProgressFn = Callable[[int, int, str], None]


def _execute_job(requests: Sequence[Request], telemetry: bool = False,
                 faults: Optional[FaultPlan] = None,
                 attempts: Sequence[int] = (),
                 inline: bool = False) -> List[dict]:
    """Worker entry point: run one job, return one payload per request.

    A job is one request, or requests sharing a lockstep group key,
    executed as one simulation.  The job's observability delta rides
    back on the first payload under ``_obs`` (stripped by the engine
    before the payload is stored or decoded): the compiled-trace-cache
    hit/build counts always, plus — when ``telemetry`` is on — the
    job's phase spans, worker id, and wall time, so parent-side
    counters, spans, and journal events see work that happened in
    worker processes, once per job.  Every payload of a group carries
    the leader's (first request's) key as ``_obs["group"]``.

    With a :class:`FaultPlan`, the plan's verdict for each (key,
    attempt) is applied here: pre-execution faults (crash / raise /
    hang) before the simulation runs, so a fault on any member fails
    the whole job, and payload corruption after.  ``inline=True``
    marks parent-process execution, where a ``crash`` fault downgrades
    to a raise so the parent survives to retry.
    """
    attempts = tuple(attempts) or (0,) * len(requests)
    if faults is not None:
        for request, attempt in zip(requests, attempts):
            faults.pre_execute(request.key(), attempt, inline)
    from ..workloads.tracecache import trace_cache

    def execute() -> List[dict]:
        results = execute_group(requests) if len(requests) > 1 \
            else [requests[0].execute()]
        return [encode_result(result) for result in results]

    stats = trace_cache().stats
    hits0, disk0, builds0 = stats.hits, stats.disk_hits, stats.builds
    member_obs: dict = {}
    if telemetry:
        # The parent's enablement travels as this submit-time argument
        # (environment inheritance would break under spawn); idempotent
        # in the parent's own inline-execution path.
        set_enabled(True)
        col = collector()
        mark = len(col)
        with col.span("request") as request_span:
            payloads = execute()
        obs = {
            # take_since: exactly this job's spans, leaving anything
            # recorded before (e.g. parent spans inherited via fork).
            "spans": col.take_since(mark),
            "wall_s": request_span["wall_s"],
            "worker": request_span["worker"],
        }
        member_obs["worker"] = obs["worker"]
    else:
        payloads = execute()
        obs = {}
    obs["trace_cache"] = {
        "hits": stats.hits + stats.disk_hits - hits0 - disk0,
        "builds": stats.builds - builds0,
    }
    if len(requests) > 1:
        obs["group"] = member_obs["group"] = requests[0].key()
    if faults is not None:
        payloads = [faults.post_execute(request.key(), attempt, payload)
                    for request, attempt, payload
                    in zip(requests, attempts, payloads)]
    for index, payload in enumerate(payloads):
        payload["_obs"] = dict(member_obs) if index else obs
    return payloads


def run_inline(requests: Sequence[Request], telemetry: bool,
               faults: Optional[FaultPlan], attempts: Sequence[int],
               future: Optional[Future] = None) -> Future:
    """Execute the job ``requests`` in this process; returns ``future``
    (a new one if none is given) completed with the payloads or the
    exception.  An injected ``crash`` downgrades to a raise, so the
    parent survives.
    """
    future = future if future is not None else Future()
    try:
        payloads = _execute_job(requests, telemetry, faults, attempts,
                                inline=True)
    except Exception as exc:
        future.set_exception(exc)
    else:
        future.set_result(payloads)
    return future


class SimulationPool:
    """Deduplicating, self-healing ProcessPoolExecutor wrapper."""

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = jobs if jobs else (os.cpu_count() or 1)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._inflight: Dict[str, Future] = {}
        #: times the worker pool was torn down and recreated.
        self.rebuilds = 0
        #: True once the rebuild budget is spent: submissions execute
        #: inline in the parent process instead of fanning out.
        self.degraded = False

    @property
    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # Forked workers inherit what the parent has imported: load
            # what a job executes once here, not once in every worker.
            load_execution_modules()
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor

    def rebuild(self) -> None:
        """Tear down the executor (killing workers) and start fresh.

        Every in-flight future belonged to the dead executor, so the
        in-flight map is cleared too — a stale future bound to a broken
        pool must never be handed out by a later :meth:`submit`.
        """
        if self._executor is not None:
            processes = getattr(self._executor, "_processes", None) or {}
            for proc in list(processes.values()):
                try:
                    proc.kill()
                except (OSError, ValueError):
                    pass  # already dead or already closed
            try:
                self._executor.shutdown(wait=False, cancel_futures=True)
            # The executor is known-broken here; shutdown of a wedged
            # pool can raise almost anything and teardown must proceed.
            except Exception:  # repro: allow(no-bare-except)
                pass
            self._executor = None
        self._inflight.clear()
        self.rebuilds += 1

    def submit(self, key: str, requests: Sequence[Request],
               telemetry: Optional[bool] = None, *,
               faults: Optional[FaultPlan] = None,
               attempts: Sequence[int] = ()) -> Future:
        """Submit one job, reusing any in-flight future for ``key``.

        The future's result is the job's list of payloads, one per
        request; ``attempts`` are the requests' attempt numbers
        (default: all first attempts).

        The in-flight future is handed back even when it is already
        done, so work left behind by an abandoned stream is picked up by
        the next lease of its key instead of being executed twice.  A
        future that finished with an exception is dropped and the
        request re-executed: that failure belonged to nobody's attempt.

        In degraded mode the job executes inline (parent process) and
        the returned future is already completed.
        """
        future = self._inflight.get(key)
        if future is not None and not (
                future.done() and (future.cancelled()
                                   or future.exception() is not None)):
            return future
        if telemetry is None:
            telemetry = spans_enabled()
        if self.degraded:
            future = run_inline(requests, telemetry, faults, attempts)
        else:
            try:
                future = self.executor.submit(
                    _execute_job, requests, telemetry, faults, attempts)
            except BrokenProcessPool:
                # The executor died between batches; heal and resubmit.
                self.rebuild()
                future = self.executor.submit(
                    _execute_job, requests, telemetry, faults, attempts)
        self._inflight[key] = future
        return future

    def discard(self, key: str) -> None:
        """Drop ``key`` from the in-flight map (its result was consumed).

        Callers must discard every future they take a result from: a
        finished future left in the map is handed back, as is, by the
        next :meth:`submit` of the same key.
        """
        self._inflight.pop(key, None)

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._inflight.clear()

    def __enter__(self) -> "SimulationPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
