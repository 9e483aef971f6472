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

from typing import Iterable, Iterator, List, Optional, Tuple, Union

from ..engine.api import Engine, raise_failures
from ..engine.faults import RequestFailure
from ..obs.spans import span
from ..experiments.runner import ExperimentContext, geomean, policy_speedup
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


def _as_list(planned) -> list:
    """A spec's plan as a request list: a MixSpec plans one request."""
    return planned if isinstance(planned, list) else [planned]


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
        return self._run_one(spec)

    def run_mix(self, spec: MixSpec) -> MixResult:
        return self._run_one(spec)

    def _run_one(self, spec: Union[RunSpec, MixSpec]):
        planned = _as_list(spec.plan(self._ctx))
        [settled] = self._resolve([planned])
        return self._build(spec, planned, settled)

    def _gather(self, plans: List[list]) -> Iterator[Tuple[int, list]]:
        """Per-spec gather over the engine's one settlement stream.

        Yields ``(plan index, its Completed items in plan order)`` as
        each plan's last request settles; all plans resolve as one
        engine batch.
        """
        flat: list = []
        owner: List[Tuple[int, int]] = []
        for plan_index, planned in enumerate(plans):
            flat.extend(planned)
            owner.extend((plan_index, pos) for pos in range(len(planned)))
        gathered = [[None] * len(planned) for planned in plans]
        remaining = [len(planned) for planned in plans]
        for done in self.engine.as_completed(flat):
            plan_index, pos = owner[done.index]
            gathered[plan_index][pos] = done
            remaining[plan_index] -= 1
            if remaining[plan_index] == 0:
                yield plan_index, gathered[plan_index]

    def _resolve(self, plans: List[list]) -> List[Optional[list]]:
        """Every plan's Completed items (None for an empty plan), once
        the whole batch has settled.

        Raises :class:`~repro.engine.faults.ExecutionError` with every
        failure once the stream has ended, as ``Engine.run_many`` does.
        """
        settled = dict(self._gather(plans))
        raise_failures(done for items in settled.values() for done in items)
        return [settled.get(index) for index in range(len(plans))]

    def _build(self, spec, planned: list,
               settled: list) -> Union[RunResult, MixResult]:
        """The tidy result of one spec from its settled requests.

        ``cached`` is True when no request of the spec was executed by
        this engine (``Completed.cached``).
        """
        failure = next((done.failure for done in settled
                        if done.failure is not None), None)
        if failure is not None:
            return self._build_failed_result(spec, planned, failure)
        cached = all(done.cached for done in settled)
        results = [done.result for done in settled]
        if isinstance(spec, MixSpec):
            return MixResult(
                spec=spec, name=spec.name, design=spec.design,
                policy=spec.policy, key=planned[0].key(), result=results[0],
                cached=cached,
            )
        ipc, speedup = policy_speedup(results[0], results[1:])
        return RunResult(
            spec=spec,
            workload=spec.workload,
            design=spec.design,
            policy=spec.policy,
            ipc=ipc,
            baseline_ipc=results[0].ipc,
            speedup=speedup,
            keys=[r.key() for r in planned],
            results=results,
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
        plans = [_as_list(spec.plan(self._ctx)) for spec in specs]
        for index, settled in self._gather(plans):
            yield self._build(specs[index], plans[index], settled)

    # -- whole experiments -------------------------------------------------

    def _plan_experiment(self, spec: ExperimentSpec):
        """Plan every section of an experiment exactly once.

        Returns ``(ctx, planned_sections)``: the context the spec
        evaluates under and each section's request list (empty for a
        figure, which resolves its own batches).  One planning pass
        feeds the whole-experiment batch (or queue dispatch) and the
        evaluation — the keys cannot drift between them.
        """
        ctx = self._ctx
        if spec.scale is not None and SCALES[spec.scale] is not self.scale:
            ctx = ExperimentContext(scale=SCALES[spec.scale],
                                    engine=self.engine)
        planned_sections = []
        with span("plan", kind="experiment", experiment=spec.name) as sp:
            for kind, section in spec.sections():
                planned = []
                if kind in ("sweep", "run", "mix"):
                    planned = _as_list(section.plan(ctx))
                planned_sections.append((kind, section, planned))
        if sp is not None:
            self.engine.journal_event("span", **sp)
        return ctx, planned_sections

    def plan_experiment(self, spec: ExperimentSpec) -> list:
        """The flat engine-request batch an experiment spec lowers to.

        The same planner :meth:`run_experiment` uses, so the returned
        requests carry exactly the content-hash keys a run would — this
        is what ``repro queue dispatch`` enqueues without executing.
        """
        _, planned_sections = self._plan_experiment(spec)
        return [request for _, _, planned in planned_sections
                for request in planned]

    def run_experiment(self, spec: ExperimentSpec) -> ExperimentResult:
        """Execute a whole experiment spec.

        All run/mix/sweep requests are planned up front and submitted as
        one batch, so a parallel engine fans the *entire* experiment out
        at once; figures resolve their own batches as they run.  An
        engine built with a durable ``queue`` dispatches that batch as
        queue jobs, and a killed run resumes from the queue and store on
        the next invocation.
        """
        ctx, planned_sections = self._plan_experiment(spec)
        settled = self._resolve([planned
                                 for _, _, planned in planned_sections])

        outcome = ExperimentResult(name=spec.name)
        saved_ctx, self._ctx = self._ctx, ctx
        try:
            for (kind, section, planned), done in zip(planned_sections,
                                                      settled):
                if kind == "sweep":
                    outcome.add(kind, self.sweep(section))
                elif kind in ("run", "mix"):
                    outcome.add(kind, self._build(section, planned, done))
                else:
                    for figure in self.figures(section):
                        outcome.add("figure", figure)
        finally:
            self._ctx = saved_ctx
        return outcome
