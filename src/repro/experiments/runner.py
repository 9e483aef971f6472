"""Experiment runner: policies, cached runs, speedups, and the StaticBest
oracle.

:class:`ExperimentContext` delegates every simulation to a
:class:`repro.engine.api.Engine`, which memoizes runs by content-hash key
(workload, trace length, system signature, policy, config), optionally
persists them in an on-disk store, and — when constructed with
``jobs > 1`` — executes cache misses across worker processes.  A figure
driver lists its *cells* (workload × design × policy) and evaluates them
with one call to a batch evaluator — :meth:`~ExperimentContext.speedups`,
:meth:`~ExperimentContext.runs` or :meth:`~ExperimentContext.mixes` —
which plans each distinct cell once and resolves every request as one
engine batch, so a serial, a parallel and a queue-backed engine all take
the same path.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from ..core.config import AthenaConfig
from ..engine.api import Engine
from ..engine.jobs import MixRequest, Request, Result, RunRequest
from ..sim.region import MultiCoreResult, SimulationResult
from ..workloads.mixes import WorkloadMix
from ..workloads.suites import (
    ReproScale,
    WorkloadSpec,
    active_scale,
    evaluation_workloads,
    representative_subset,
)
from .configs import CacheDesign

__all__ = [
    "ExperimentContext",
    "geomean",
    "policy_speedup",
    "split_categories",
    "static_best",
]


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (the paper's aggregate speedup metric)."""
    if not values:
        raise ValueError("geomean of empty sequence")
    log_sum = 0.0
    for v in values:
        if v <= 0:
            raise ValueError(f"geomean requires positive values, got {v}")
        log_sum += math.log(v)
    if len(values) == 1:
        # one value is its own mean; exp(log(x)) may not be x
        return values[0]
    return math.exp(log_sum / len(values))


def static_best(speedups: Iterable[float]) -> float:
    """StaticBest (§2.1.2) from the speedups of a design's non-empty
    static combinations (:meth:`ExperimentContext.static_best_cells`):
    the empty combination is the baseline itself, at speedup 1."""
    return max([1.0, *speedups])


def policy_speedup(baseline: SimulationResult,
                   runs: Sequence[SimulationResult]) -> Tuple[float, float]:
    """``(policy IPC, speedup)`` of policy runs over their baseline.

    The policy IPC is the geomean of the runs' IPCs (Athena's seed
    set); the speedup is its ratio over the baseline's IPC.  Raises
    ``RuntimeError`` on a zero baseline IPC.
    """
    if baseline.ipc <= 0:
        raise RuntimeError(f"zero baseline IPC for {baseline.workload}")
    ipc = geomean([run.ipc for run in runs])
    return ipc, ipc / baseline.ipc


def split_categories(
    workloads: Sequence[WorkloadSpec], reference_speedups: Sequence[float]
) -> Tuple[List[WorkloadSpec], List[WorkloadSpec]]:
    """Split into (prefetcher-friendly, prefetcher-adverse) workloads: a
    workload is adverse when the reference prefetcher alone
    (:meth:`ExperimentContext.classification_cells`) slows it down."""
    friendly: List[WorkloadSpec] = []
    adverse: List[WorkloadSpec] = []
    for spec, speedup in zip(workloads, reference_speedups):
        (friendly if speedup >= 1.0 else adverse).append(spec)
    return friendly, adverse


class ExperimentContext:
    """Planners and batch evaluators shared by all figure drivers.

    A *cell* is the tuple of positional arguments of a planner:
    ``(spec, design[, policy_name[, athena_config]])`` for
    :meth:`plan_speedup` and :meth:`plan_run`, ``(mix, design[,
    policy_name])`` for :meth:`plan_mix`.  Cells are dictionary keys, so
    equal cells are evaluated once.

    The planners return the context's first request equal to the one
    they build: that instance already carries its content key, so a
    request planned twice (an experiment's batch, then its sweep's
    evaluation) is hashed once.
    """

    def __init__(
        self,
        scale: Optional[ReproScale] = None,
        engine: Optional[Engine] = None,
    ) -> None:
        self.scale = scale if scale is not None else active_scale()
        self.engine = engine if engine is not None else Engine()
        self._planned: Dict[Request, Request] = {}

    # -- request planning ------------------------------------------------------

    def plan_run(
        self,
        spec: WorkloadSpec,
        design: CacheDesign,
        policy_name: str = "none",
        athena_config: Optional[AthenaConfig] = None,
        *,
        trace_length: Optional[int] = None,
        epoch_length: Optional[int] = None,
        warmup_fraction: Optional[float] = None,
        policy_options: Tuple[Tuple[str, object], ...] = (),
    ) -> RunRequest:
        """The engine request of one :meth:`runs` cell.

        The keyword-only overrides default to the context's scale, so
        requests planned without them keep their historical content
        keys; spec files use them to pin per-run lengths.
        """
        return self._intern(RunRequest(
            spec=spec,
            trace_length=trace_length if trace_length is not None
            else self.scale.trace_length,
            design=design,
            policy_name=policy_name,
            athena_config=athena_config,
            epoch_length=epoch_length if epoch_length is not None
            else self.scale.epoch_length,
            warmup_fraction=warmup_fraction if warmup_fraction is not None
            else self.scale.warmup_fraction,
            policy_options=policy_options,
        ))

    #: seed offsets mixed into the Athena agent seed for trajectory
    #: averaging (see ReproScale.policy_seeds).
    _SEED_STREAM = (0, 0x9D2C, 0x3A71, 0x61C8, 0x7F4A)

    def plan_speedup(
        self,
        spec: WorkloadSpec,
        design: CacheDesign,
        policy_name: str = "none",
        athena_config: Optional[AthenaConfig] = None,
        **overrides,
    ) -> List[RunRequest]:
        """Every request of one :meth:`speedups` cell: the baseline, then
        the policy run — for Athena, one run per agent seed of the seed
        stream."""
        policy_overrides = dict(overrides)
        baseline_overrides = dict(overrides)
        baseline_overrides.pop("policy_options", None)
        requests = [
            self.plan_run(spec, design.without_mechanisms(),
                          **baseline_overrides)
        ]
        if policy_name == "athena":
            config = athena_config if athena_config is not None \
                else AthenaConfig()
            for offset in self._SEED_STREAM[: max(1, self.scale.policy_seeds)]:
                seeded = config.with_updates(seed=config.seed ^ offset)
                requests.append(
                    self.plan_run(spec, design, policy_name, seeded,
                                  **policy_overrides)
                )
        else:
            requests.append(
                self.plan_run(spec, design, policy_name, athena_config,
                              **policy_overrides)
            )
        return requests

    def plan_static_best(
        self, spec: WorkloadSpec, design: CacheDesign
    ) -> List[RunRequest]:
        """Every request :meth:`static_best_speedup` needs."""
        return [self.plan_run(spec, design.without_mechanisms())] + [
            self.plan_run(*cell)
            for cell in self.static_best_cells(spec, design)
        ]

    def plan_classify(
        self, design: CacheDesign, workloads: Sequence[WorkloadSpec]
    ) -> List[RunRequest]:
        """Every request :meth:`classify_workloads` needs."""
        return [request
                for cell in self.classification_cells(design, workloads)
                for request in self.plan_speedup(*cell)]

    def plan_mix(
        self,
        mix: WorkloadMix,
        design: CacheDesign,
        policy_name: str = "none",
        *,
        trace_length: Optional[int] = None,
        epoch_length: Optional[int] = None,
        warmup_fraction: Optional[float] = None,
        policy_options: Tuple[Tuple[str, object], ...] = (),
    ) -> MixRequest:
        """The engine request of one :meth:`mixes` cell."""
        return self._intern(MixRequest(
            workloads=tuple(mix.workloads),
            trace_length=trace_length if trace_length is not None
            else self.scale.trace_length,
            design=design,
            policy_name=policy_name,
            epoch_length=epoch_length if epoch_length is not None
            else self.scale.epoch_length,
            warmup_fraction=warmup_fraction if warmup_fraction is not None
            else self.scale.warmup_fraction,
            policy_options=policy_options,
        ))

    def _intern(self, request: Request) -> Request:
        try:
            return self._planned.setdefault(request, request)
        except TypeError:  # an unhashable policy option value
            return request

    # -- batch evaluation ------------------------------------------------------

    def _evaluate(
        self, plan: Callable[..., List[Request]], cells: Iterable[tuple]
    ) -> Dict[tuple, List[Result]]:
        """The results of ``plan(*cell)`` for each distinct cell,
        resolved as one engine batch.

        Equal requests of different cells (every cell of a workload
        shares its baseline) take one place in the batch.
        """
        planned: Dict[tuple, List[int]] = {}
        index: Dict[Request, int] = {}
        for cell in cells:
            if cell not in planned:
                planned[cell] = [index.setdefault(request, len(index))
                                 for request in plan(*cell)]
        results = self.engine.run_many(list(index))
        return {cell: [results[i] for i in positions]
                for cell, positions in planned.items()}

    def runs(self, cells: Iterable[tuple]) -> Dict[tuple, SimulationResult]:
        """The result of each :meth:`plan_run` cell, as one batch."""
        return {cell: result for cell, (result,) in self._evaluate(
            lambda *cell: [self.plan_run(*cell)], cells).items()}

    def mixes(self, cells: Iterable[tuple]) -> Dict[tuple, MultiCoreResult]:
        """The result of each :meth:`plan_mix` cell, as one batch."""
        return {cell: result for cell, (result,) in self._evaluate(
            lambda *cell: [self.plan_mix(*cell)], cells).items()}

    def speedups(self, cells: Iterable[tuple]) -> Dict[tuple, float]:
        """The speedup over its baseline of each :meth:`plan_speedup`
        cell, as one batch.

        Athena's IPC is the geomean over its seed set: a single
        ~40-epoch SARSA run is one noisy sample of the learned policy,
        and the paper's 250K-epoch runs average that noise away
        internally.
        """
        return {cell: policy_speedup(baseline, runs)[1]
                for cell, (baseline, *runs) in self._evaluate(
                    self.plan_speedup, cells).items()}

    def speedup(
        self,
        spec: WorkloadSpec,
        design: CacheDesign,
        policy_name: str = "none",
        athena_config: Optional[AthenaConfig] = None,
    ) -> float:
        """One :meth:`speedups` cell."""
        cell = (spec, design, policy_name, athena_config)
        return self.speedups([cell])[cell]

    # -- oracle ------------------------------------------------------------------

    def static_combinations(self, design: CacheDesign) -> List[CacheDesign]:
        """All on/off subsets of the design's mechanisms (incl. baseline)."""
        out: List[CacheDesign] = []
        n = len(design.prefetcher_names)
        ocp_options = [None, design.ocp_name] if design.ocp_name else [None]
        for mask in range(1 << n):
            chosen = tuple(
                name
                for i, name in enumerate(design.prefetcher_names)
                if (mask >> i) & 1
            )
            for ocp in ocp_options:
                out.append(
                    replace(
                        design,
                        name=f"{design.name}-static-{mask}-{ocp or 'noocp'}",
                        prefetcher_names=chosen,
                        ocp_name=ocp,
                    )
                )
        return out

    def static_best_cells(
        self, spec: WorkloadSpec, design: CacheDesign
    ) -> List[tuple]:
        """The :meth:`speedups` cells :func:`static_best` maximizes
        over: every static combination but the empty one."""
        return [(spec, combo) for combo in self.static_combinations(design)
                if combo.prefetcher_names or combo.ocp_name is not None]

    def static_best_speedup(
        self, spec: WorkloadSpec, design: CacheDesign
    ) -> float:
        """StaticBest oracle: best end-to-end static combination (§2.1.2)."""
        return static_best(
            self.speedups(self.static_best_cells(spec, design)).values())

    # -- workload classification (paper Figure 1) ---------------------------------

    def classification_cells(
        self, design: CacheDesign, workloads: Sequence[WorkloadSpec]
    ) -> List[tuple]:
        """The :meth:`speedups` cells that classify ``workloads``, in
        their order.

        The paper defines the two categories *once*, from Figure 1's
        reference configuration (Pythia at L2C in the bandwidth-constrained
        CD1 system), and reuses that split in every later figure — a
        workload is "prefetcher-adverse" if the reference prefetcher alone
        degrades its performance.  ``design`` selects the memory-bandwidth
        configuration but the reference prefetcher stays Pythia/CD1.
        """
        reference = CacheDesign.cd1(
            bandwidth_gbps=design.bandwidth_gbps
        ).only_prefetchers()
        return [(spec, reference) for spec in workloads]

    def classify_workloads(
        self,
        design: CacheDesign,
        workloads: Sequence[WorkloadSpec],
    ) -> Tuple[List[WorkloadSpec], List[WorkloadSpec]]:
        """Split into (prefetcher-friendly, prefetcher-adverse) workloads
        (see :meth:`classification_cells`)."""
        cells = self.classification_cells(design, workloads)
        speedup = self.speedups(cells)
        return split_categories(workloads, [speedup[c] for c in cells])

    # -- aggregates ---------------------------------------------------------------

    def workload_pool(self, count: Optional[int] = None):
        n = count if count is not None else self.scale.workloads_per_figure
        return representative_subset(n, evaluation_workloads())

    def geomean_speedup(
        self,
        workloads: Sequence[WorkloadSpec],
        design: CacheDesign,
        policy_name: str = "none",
        athena_config: Optional[AthenaConfig] = None,
    ) -> float:
        cells = [(spec, design, policy_name, athena_config)
                 for spec in workloads]
        speedup = self.speedups(cells)
        return geomean([speedup[cell] for cell in cells])
