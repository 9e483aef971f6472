"""Session: the SDK's execution facade.

A :class:`Session` wraps an :class:`~repro.engine.api.Engine` and turns
typed specs into tidy results:

* :meth:`run` / :meth:`run_mix` — one spec, blocking,
* :meth:`sweep` — a cross-product, one batch,
* :meth:`as_completed` — a *streaming* iterator over many specs:
  results are yielded as workers finish (cache hits first), instead of
  blocking on a whole-batch barrier,
* :meth:`run_experiment` — a whole :class:`ExperimentSpec` file, with
  every run/mix/sweep request resolved as one batch so the full
  experiment fans out across the worker pool at once.

Sessions are context managers; closing one closes its engine, which
shuts the worker pool down and closes the store.  Quickstart::

    from repro.api import RunSpec, Session
    from repro.engine import Engine, ResultStore

    engine = Engine(store=ResultStore("results.sqlite"), jobs=4)
    with Session(engine) as session:
        result = session.run(RunSpec(workload="ligra.BFS.0",
                                     policy="athena"))
        print(result.speedup, result.to_rows())
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Union

from ..engine.api import Engine
from ..engine.faults import RequestFailure
from ..obs.spans import span
from ..experiments.runner import ExperimentContext, geomean
from ..workloads.suites import SCALES, ReproScale, active_scale
from .results import (
    ExperimentResult,
    FigureOutcome,
    MixResult,
    RunResult,
    SweepResult,
    attach_sweep_table,
)
from .spec import ExperimentSpec, FigureSpec, MixSpec, RunSpec, SweepSpec


class Session:
    """Spec-level API over an :class:`~repro.engine.api.Engine`.

    Parameters
    ----------
    engine:
        The engine every spec resolves through; it carries the store,
        worker count, progress callback, telemetry, resilience policy,
        fault plan and queue.  Defaults to ``Engine()``: in-process, no
        persistent store (results are still memoized for the session's
        lifetime).  Closing the session closes the engine.
    scale:
        A :class:`~repro.workloads.suites.ReproScale` or its name
        (``tiny``/``small``/``medium``/``full``); defaults to the
        ``REPRO_SCALE`` environment variable, then ``small``.
    """

    def __init__(
        self,
        engine: Optional[Engine] = None,
        scale: Union[ReproScale, str, None] = None,
    ) -> None:
        if isinstance(scale, str):
            try:
                scale = SCALES[scale]
            except KeyError:
                raise ValueError(
                    f"unknown scale {scale!r}; valid: {sorted(SCALES)}"
                ) from None
        self.scale = scale if scale is not None else active_scale()
        self.engine = engine if engine is not None else Engine()
        self._ctx = ExperimentContext(scale=self.scale, engine=self.engine)

    # -- plumbing ----------------------------------------------------------

    @property
    def context(self) -> ExperimentContext:
        """The experiment context figure drivers run against."""
        return self._ctx

    @property
    def counters(self):
        return self.engine.counters

    def close(self) -> None:
        self.engine.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- single specs ------------------------------------------------------

    def run(self, spec: RunSpec) -> RunResult:
        """Resolve one run spec (baseline + policy) into a RunResult."""
        return self._run_planned(spec, spec.plan(self._ctx))

    def _run_planned(self, spec: RunSpec, requests,
                     cached: Optional[bool] = None) -> RunResult:
        if cached is None:
            results, cached = self._resolve_attributed(
                requests, lambda: self.engine.run_many(requests))
        else:
            results = self.engine.run_many(requests)
        return self._build_run_result(spec, requests, results, cached)

    def run_mix(self, spec: MixSpec) -> MixResult:
        return self._run_mix_planned(spec, spec.plan(self._ctx))

    def _run_mix_planned(self, spec: MixSpec, request,
                         cached: Optional[bool] = None) -> MixResult:
        if cached is None:
            result, cached = self._resolve_attributed(
                [request], lambda: self.engine.run(request))
        else:
            result = self.engine.run(request)
        return self._build_mix_result(spec, request, result, cached)

    def _resolve_attributed(self, requests, resolve):
        """Resolve and report whether *these* keys executed.

        Per-key attribution via ``engine.executed_keys``: counter
        deltas would blame this spec for unrelated work the engine
        harvests or executes concurrently, and a pre-run store peek
        could not see a stale row that decodes as a miss.
        """
        keys = {request.key() for request in requests}
        already = keys & self.engine.executed_keys
        outcome = resolve()
        newly = (keys & self.engine.executed_keys) - already
        return outcome, not newly

    def _build_mix_result(self, spec, request, result,
                          cached: bool) -> MixResult:
        return MixResult(
            spec=spec, name=spec.name, design=spec.design,
            policy=spec.policy, key=request.key(), result=result,
            cached=cached,
        )

    def _build_failed_result(
        self, spec, planned, failure: RequestFailure
    ) -> Union[RunResult, MixResult]:
        """An error-status result for a spec whose execution failed."""
        if isinstance(spec, MixSpec):
            return MixResult(
                spec=spec, name=spec.name, design=spec.design,
                policy=spec.policy, key=planned[0].key(), result=None,
                status="error", error=failure.summary(),
            )
        return RunResult(
            spec=spec, workload=spec.workload, design=spec.design,
            policy=spec.policy, ipc=None, baseline_ipc=None,
            speedup=None, keys=[r.key() for r in planned],
            status="error", error=failure.summary(),
        )

    def _build_run_result(self, spec, requests, results, cached) -> RunResult:
        baseline_ipc = results[0].ipc
        if baseline_ipc <= 0:
            raise RuntimeError(f"zero baseline IPC for {spec.workload}")
        ipc = geomean([r.ipc for r in results[1:]])
        return RunResult(
            spec=spec,
            workload=spec.workload,
            design=spec.design,
            policy=spec.policy,
            ipc=ipc,
            baseline_ipc=baseline_ipc,
            speedup=ipc / baseline_ipc,
            keys=[r.key() for r in requests],
            results=list(results),
            cached=cached,
        )

    # -- sweeps ------------------------------------------------------------

    def sweep(self, spec: SweepSpec) -> SweepResult:
        """Resolve a sweep spec into the speedup matrix, as one batch.

        Produces byte-identical numbers (and engine keys) to the
        ``repro sweep`` CLI command, which is now a shell over this.
        """
        ctx = self._ctx
        workloads = spec.resolve_workloads(ctx)
        if not workloads:
            raise ValueError("sweep needs at least one workload")
        designs = spec.resolve_designs()
        columns = spec.columns()
        speedup = ctx.speedups(
            (wspec, designs[dname], policy)
            for wspec in workloads for _, dname, policy in columns)
        cells = {}
        per_column = {label: [] for label, _, _ in columns}
        for wspec in workloads:
            for label, dname, policy in columns:
                value = speedup[wspec, designs[dname], policy]
                cells[(wspec.name, label)] = value
                per_column[label].append(value)
        geomeans = {
            label: geomean(values) for label, values in per_column.items()
        }
        return attach_sweep_table(
            spec, [w.name for w in workloads], columns, cells, geomeans
        )

    # -- figures -----------------------------------------------------------

    def figures(self, spec: FigureSpec) -> Iterator[FigureOutcome]:
        """Regenerate figures, yielding each as its campaign finishes.

        Lazy so a long ``--all`` run surfaces tables incrementally
        instead of buffering the whole multi-figure campaign.
        """
        from ..experiments.figures import FIGURES

        for fid in spec.resolve():
            yield FigureOutcome(figure_id=fid, table=FIGURES[fid](self._ctx))

    # -- streaming ---------------------------------------------------------

    def as_completed(
        self, specs: Iterable[Union[RunSpec, MixSpec]]
    ) -> Iterator[Union[RunResult, MixResult]]:
        """Yield results as their simulations finish.

        Each spec completes when *all* its underlying requests resolve
        (a RunSpec needs its baseline plus every policy seed).  Specs
        fully served by the memo/store yield first, in input order;
        the rest follow in completion order — with a parallel engine
        that is whichever spec's last simulation finishes first, so
        consumers overlap analysis with simulation instead of waiting
        on the slowest member of the batch.

        A spec whose execution fails after the engine's retries still
        settles: it yields a result with ``status="error"`` (numeric
        fields ``None``) instead of raising mid-stream, so every
        submitted spec yields exactly once.
        """
        specs = list(specs)
        plans: List[list] = []
        for spec in specs:
            planned = spec.plan(self._ctx)
            plans.append(planned if isinstance(planned, list) else [planned])
        flat = []
        owner: List[int] = []
        position: List[int] = []
        for spec_index, planned in enumerate(plans):
            for pos, request in enumerate(planned):
                flat.append(request)
                owner.append(spec_index)
                position.append(pos)
        remaining = [len(planned) for planned in plans]
        gathered: List[dict] = [{} for _ in plans]
        all_cached = [True] * len(plans)
        failed: List[Optional[RequestFailure]] = [None] * len(plans)
        for completed in self.engine.as_completed(flat):
            spec_index = owner[completed.index]
            gathered[spec_index][position[completed.index]] = completed.result
            all_cached[spec_index] &= completed.cached
            if completed.failure is not None and failed[spec_index] is None:
                failed[spec_index] = completed.failure
            remaining[spec_index] -= 1
            if remaining[spec_index] == 0:
                spec = specs[spec_index]
                planned = plans[spec_index]
                if failed[spec_index] is not None:
                    yield self._build_failed_result(
                        spec, planned, failed[spec_index])
                    continue
                ordered = [
                    gathered[spec_index][pos] for pos in range(len(planned))
                ]
                if isinstance(spec, MixSpec):
                    yield self._build_mix_result(
                        spec, planned[0], ordered[0],
                        all_cached[spec_index],
                    )
                else:
                    yield self._build_run_result(
                        spec, planned, ordered, all_cached[spec_index]
                    )

    # -- whole experiments -------------------------------------------------

    def _plan_experiment(self, spec: ExperimentSpec):
        """Plan every section of an experiment exactly once.

        Returns ``(ctx, planned_sections, requests)``: the context the
        spec evaluates under, per-section plans, and the flat request
        batch.  One planning pass feeds the whole-experiment batch (or
        queue dispatch), the per-section cached attribution, and the
        evaluation — the keys cannot drift between them.
        """
        ctx = self._ctx
        if spec.scale is not None and SCALES[spec.scale] is not self.scale:
            ctx = ExperimentContext(scale=SCALES[spec.scale],
                                    engine=self.engine)
        planned_sections = []
        requests = []
        with span("plan", kind="experiment", experiment=spec.name) as sp:
            for kind, section in spec.sections():
                planned = None
                if kind in ("sweep", "run", "mix"):
                    planned = section.plan(ctx)
                    requests.extend([planned] if kind == "mix" else planned)
                planned_sections.append((kind, section, planned))
        if sp is not None:
            self.engine.journal_event("span", **sp)
        return ctx, planned_sections, requests

    def plan_experiment(self, spec: ExperimentSpec) -> list:
        """The flat engine-request batch an experiment spec lowers to.

        The same planner :meth:`run_experiment` uses, so the returned
        requests carry exactly the content-hash keys a run would — this
        is what ``repro queue dispatch`` enqueues without executing.
        """
        _, _, requests = self._plan_experiment(spec)
        return requests

    def run_experiment(self, spec: ExperimentSpec) -> ExperimentResult:
        """Execute a whole experiment spec.

        All run/mix/sweep requests are planned up front and submitted as
        one batch, so a parallel engine fans the *entire* experiment out
        at once; figures resolve their own batches as they run.  An
        engine built with a durable ``queue`` dispatches that batch as
        queue jobs, and a killed run resumes from the queue and store on
        the next invocation.
        """
        ctx, planned_sections, requests = self._plan_experiment(spec)
        executed_before = set(self.engine.executed_keys)
        if requests:
            self.engine.run_many(requests)
        newly_executed = self.engine.executed_keys - executed_before

        sections = []
        for kind, section, planned in planned_sections:
            cached = None
            if kind in ("run", "mix"):  # SweepResult has no cached flag
                section_requests = [planned] if kind == "mix" else planned
                cached = not any(
                    r.key() in newly_executed for r in section_requests
                )
            sections.append((kind, section, planned, cached))

        outcome = ExperimentResult(name=spec.name)
        saved_ctx, self._ctx = self._ctx, ctx
        try:
            for kind, section, planned, cached in sections:
                if kind == "sweep":
                    outcome.add(kind, self.sweep(section))
                elif kind == "run":
                    outcome.add(kind, self._run_planned(section, planned,
                                                        cached=cached))
                elif kind == "mix":
                    outcome.add(kind, self._run_mix_planned(
                        section, planned, cached=cached))
                else:
                    for figure in self.figures(section):
                        outcome.add("figure", figure)
        finally:
            self._ctx = saved_ctx
        return outcome
