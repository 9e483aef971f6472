"""Experiment runner: policies, cached runs, speedups, and the StaticBest
oracle.

:class:`ExperimentContext` delegates every simulation to a
:class:`repro.engine.api.Engine`, which memoizes runs by content-hash key
(workload, trace length, system signature, policy, config), optionally
persists them in an on-disk store, and — when constructed with
``jobs > 1`` — executes cache misses across worker processes.  Figure
drivers *plan* their full run matrix up front (:meth:`plan_speedup`,
:meth:`plan_static_best`, :meth:`plan_classify`) and submit it as one
batch via :meth:`prefetch`, so a whole figure fans out in parallel while
the serial driver code below stays byte-for-byte compatible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import AthenaConfig
from ..engine.api import Engine
from ..engine.jobs import MixRequest, Request, RunRequest
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
    "RunRecord",
    "geomean",
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


@dataclass
class RunRecord:
    """Cached outcome of one simulation."""

    ipc: float
    result: SimulationResult


class ExperimentContext:
    """Run cache + convenience helpers shared by all figure drivers."""

    def __init__(
        self,
        scale: Optional[ReproScale] = None,
        engine: Optional[Engine] = None,
    ) -> None:
        self.scale = scale if scale is not None else active_scale()
        self.engine = engine if engine is not None else Engine()
        #: RunRecord wrappers by :meth:`run` arguments, so a repeated call
        #: returns the identical record without re-planning or re-hashing
        #: its request.  ``scale`` is fixed at construction (nothing
        #: reassigns it), so the arguments determine the request.
        #: Distinct arguments with one request key still execute once,
        #: via the engine memo.
        self._records: Dict[tuple, RunRecord] = {}

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
        """The engine request :meth:`run` would resolve.

        The keyword-only overrides default to the context's scale, so
        requests planned without them keep their historical content
        keys; spec files use them to pin per-run lengths.
        """
        return RunRequest(
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
        )

    def plan_speedup(
        self,
        spec: WorkloadSpec,
        design: CacheDesign,
        policy_name: str = "none",
        athena_config: Optional[AthenaConfig] = None,
        **overrides,
    ) -> List[RunRequest]:
        """Every request :meth:`speedup` needs (baseline + policy runs)."""
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
        requests = [self.plan_run(spec, design.without_mechanisms())]
        for combo in self.static_combinations(design):
            if not combo.prefetcher_names and combo.ocp_name is None:
                continue
            requests.append(self.plan_run(spec, combo))
        return requests

    def plan_classify(
        self, design: CacheDesign, workloads: Sequence[WorkloadSpec]
    ) -> List[RunRequest]:
        """Every request :meth:`classify_workloads` needs."""
        reference = CacheDesign.cd1(
            bandwidth_gbps=design.bandwidth_gbps
        ).only_prefetchers()
        requests: List[RunRequest] = []
        for spec in workloads:
            requests.extend(self.plan_speedup(spec, reference))
        return requests

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
        return MixRequest(
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
        )

    def prefetch(self, requests: Sequence[Request]) -> None:
        """Batch-resolve ``requests`` ahead of the serial driver code.

        With a parallel engine the misses fan out across worker
        processes; with a queue-backed engine they are dispatched as
        one batch of durable jobs even at ``jobs=1``, so external
        workers can share the load and a crash resumes the whole batch.
        With a serial, queue-less engine this is a no-op (the runs
        would execute at the same cost when first demanded).
        """
        if requests and (self.engine.parallel
                         or getattr(self.engine, "queue", None) is not None):
            self.engine.run_many(requests)

    # -- primitive runs -------------------------------------------------------

    def run(
        self,
        spec: WorkloadSpec,
        design: CacheDesign,
        policy_name: str = "none",
        athena_config: Optional[AthenaConfig] = None,
    ) -> RunRecord:
        args = (spec, design, policy_name, athena_config)
        record = self._records.get(args)
        if record is None:
            [record] = self._resolve([args])
        return record

    def _resolve(self, runs: Sequence[tuple]) -> List[RunRecord]:
        """Record unrecorded :meth:`run` argument tuples, resolved as one
        engine batch, so an Athena seed set runs as one lockstep job.
        Like ``Engine.run``, it reports no progress."""
        results = self.engine.run_many(
            [self.plan_run(*args) for args in runs],
            progress=lambda *_: None)
        records = [RunRecord(ipc=result.ipc, result=result)
                   for result in results]
        self._records.update(zip(runs, records))
        return records

    def run_mix(
        self, mix: WorkloadMix, design: CacheDesign, policy_name: str = "none"
    ) -> MultiCoreResult:
        """One multi-core mix simulation, resolved through the engine."""
        return self.engine.run(self.plan_mix(mix, design, policy_name))

    def baseline_ipc(self, spec: WorkloadSpec, design: CacheDesign) -> float:
        return self.run(spec, design.without_mechanisms()).ipc

    #: seed offsets mixed into the Athena agent seed for trajectory
    #: averaging (see ReproScale.policy_seeds).
    _SEED_STREAM = (0, 0x9D2C, 0x3A71, 0x61C8, 0x7F4A)

    def speedup(
        self,
        spec: WorkloadSpec,
        design: CacheDesign,
        policy_name: str = "none",
        athena_config: Optional[AthenaConfig] = None,
    ) -> float:
        base = self.baseline_ipc(spec, design)
        if base <= 0:
            raise RuntimeError(f"zero baseline IPC for {spec.name}")
        if policy_name == "athena":
            # Average a few independent agent trajectories: a single
            # ~40-epoch SARSA run is one noisy sample of the learned
            # policy, and the paper's 250K-epoch runs average that noise
            # away internally.
            config = athena_config if athena_config is not None else AthenaConfig()
            runs = [(spec, design, policy_name,
                     config.with_updates(seed=config.seed ^ offset))
                    for offset in self._SEED_STREAM[: max(1, self.scale.policy_seeds)]]
            records = [self._records.get(args) for args in runs]
            missing = [args for args, record in zip(runs, records)
                       if record is None]
            if missing:
                resolved = iter(self._resolve(missing))
                records = [record or next(resolved) for record in records]
            return geomean([record.ipc for record in records]) / base
        record = self.run(spec, design, policy_name, athena_config)
        return record.ipc / base

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

    def static_best_speedup(
        self, spec: WorkloadSpec, design: CacheDesign
    ) -> float:
        """StaticBest oracle: best end-to-end static combination (§2.1.2)."""
        base = self.baseline_ipc(spec, design)
        best = base
        for combo in self.static_combinations(design):
            if not combo.prefetcher_names and combo.ocp_name is None:
                continue  # that's the baseline itself
            best = max(best, self.run(spec, combo).ipc)
        return best / base

    # -- workload classification (paper Figure 1) ---------------------------------

    def classify_workloads(
        self,
        design: CacheDesign,
        workloads: Sequence[WorkloadSpec],
    ) -> Tuple[List[WorkloadSpec], List[WorkloadSpec]]:
        """Split into (prefetcher-friendly, prefetcher-adverse) workloads.

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
        friendly: List[WorkloadSpec] = []
        adverse: List[WorkloadSpec] = []
        for spec in workloads:
            if self.speedup(spec, reference) >= 1.0:
                friendly.append(spec)
            else:
                adverse.append(spec)
        return friendly, adverse

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
        return geomean(
            [
                self.speedup(spec, design, policy_name, athena_config)
                for spec in workloads
            ]
        )
