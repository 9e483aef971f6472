"""Process-pool wrapper and the worker entry point for simulations.

:func:`_execute_request` runs one request and returns its *serialized*
result payload rather than the live object: the parent decodes it
through the same codec the store uses, so pooled, inline and
store-replayed runs traverse one code path and stay bit-identical.

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
from typing import Callable, Dict, Optional

from ..obs.spans import collector, set_enabled, spans_enabled
from .faults import FaultPlan, RequestFailure
from .jobs import Request, encode_result

#: progress callback: (settled_count, total, request_key)
ProgressFn = Callable[[int, int, str], None]

#: failure callback: (failure, retrying) — retrying=True means the
#: request will be attempted again, False means the failure is terminal.
FailureFn = Callable[[RequestFailure, bool], None]

#: rebuild callback: (total_rebuilds, degraded)
RebuildFn = Callable[[int, bool], None]


def _execute_request(request: Request, telemetry: bool = False,
                     faults: Optional[FaultPlan] = None,
                     attempt: int = 0, inline: bool = False) -> dict:
    """Worker entry point: run the simulation, return its payload.

    The worker's observability delta rides back on the payload under
    ``_obs`` (stripped by the engine before the payload is stored or
    decoded): the compiled-trace-cache hit/build counts always, plus —
    when ``telemetry`` is on — the request's phase spans, worker id,
    and wall time, so parent-side counters, spans, and journal events
    see work that happened in worker processes.

    With a :class:`FaultPlan`, the plan's verdict for this
    (key, attempt) is applied here: pre-execution faults (crash /
    raise / hang) before the simulation runs, payload corruption after.
    ``inline=True`` marks parent-process execution, where a ``crash``
    fault downgrades to a raise so the parent survives to retry.
    """
    if faults is not None:
        faults.pre_execute(request.key(), attempt, inline)
    from ..workloads.tracecache import trace_cache

    stats = trace_cache().stats
    hits0, disk0, builds0 = stats.hits, stats.disk_hits, stats.builds
    if telemetry:
        # The parent's enablement travels as this submit-time argument
        # (environment inheritance would break under spawn); idempotent
        # in the parent's own inline-execution path.
        set_enabled(True)
        col = collector()
        mark = len(col)
        with col.span("request") as request_span:
            payload = encode_result(request.execute())
        obs = {
            # take_since: exactly this request's spans, leaving anything
            # recorded before (e.g. parent spans inherited via fork).
            "spans": col.take_since(mark),
            "wall_s": request_span["wall_s"],
            "worker": request_span["worker"],
        }
    else:
        payload = encode_result(request.execute())
        obs = {}
    obs["trace_cache"] = {
        "hits": stats.hits + stats.disk_hits - hits0 - disk0,
        "builds": stats.builds - builds0,
    }
    if faults is not None:
        payload = faults.post_execute(request.key(), attempt, payload)
    payload["_obs"] = obs
    return payload


def run_inline(request: Request, telemetry: bool,
               faults: Optional[FaultPlan], attempt: int,
               future: Optional[Future] = None) -> Future:
    """Execute ``request`` in this process; returns ``future`` (a new
    one if none is given) completed with the payload or the exception.
    An injected ``crash`` downgrades to a raise, so the parent survives.
    """
    future = future if future is not None else Future()
    try:
        payload = _execute_request(request, telemetry, faults, attempt,
                                   inline=True)
    except Exception as exc:
        future.set_exception(exc)
    else:
        future.set_result(payload)
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

    def submit(self, key: str, request: Request,
               telemetry: Optional[bool] = None, *,
               faults: Optional[FaultPlan] = None,
               attempt: int = 0) -> Future:
        """Submit one request, reusing any in-flight future for ``key``.

        The in-flight future is handed back even when it is already
        done, so work left behind by an abandoned stream is picked up by
        the next lease of its key instead of being executed twice.  A
        future that finished with an exception is dropped and the
        request re-executed: that failure belonged to nobody's attempt.

        In degraded mode the request executes inline (parent process)
        and the returned future is already completed.
        """
        future = self._inflight.get(key)
        if future is not None and not (
                future.done() and (future.cancelled()
                                   or future.exception() is not None)):
            return future
        if telemetry is None:
            telemetry = spans_enabled()
        if self.degraded:
            future = run_inline(request, telemetry, faults, attempt)
        else:
            try:
                future = self.executor.submit(
                    _execute_request, request, telemetry, faults, attempt)
            except BrokenProcessPool:
                # The executor died between batches; heal and resubmit.
                self.rebuild()
                future = self.executor.submit(
                    _execute_request, request, telemetry, faults, attempt)
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
