"""The measured region of a core's run, owned in one place.

Every reported statistic starts at the warmup end (paper §6.1), and a
policy decides on each epoch's telemetry (paper §5).  Both simulators
drive one timing loop, ``segment_loop``; each keeps its own epoch
schedule (``Simulator._loop`` and each multi-core core's
``_CoreContext.events``) but crosses those boundaries through one
:class:`MeasuredRegion`, built alike for a single-core run and for each
core of a mix: its warmup reset zeroes only the core's own
:class:`SimStats`, so a core ending its warmup leaves the shared LLC and
DRAM exactly as they are.  The per-instruction reference loops of the
oracle tests call its primitives, :func:`build_epoch_telemetry` and
:func:`reset_measured_stats`, directly, and close the hierarchy's
feature tracker's epoch as :meth:`MeasuredRegion.end_epoch` does.

The results a region yields, :class:`SimulationResult` and a mix's
:class:`MultiCoreResult`, live here too, so a stored result decodes
without importing the memory model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, List, Sequence, Tuple

from .stats import CoordinationAction, EpochTelemetry, SimStats

if TYPE_CHECKING:  # the results decode without the memory model
    from .dram import MainMemory
    from .hierarchy import CacheHierarchy


@dataclass
class SimulationResult:
    """Outcome of one core's run: a single-core run, or one core of a
    mix (which records no epochs or actions)."""

    workload: str
    stats: SimStats
    instructions: int
    cycles: float
    epochs: List[EpochTelemetry] = field(default_factory=list)
    actions: List[CoordinationAction] = field(default_factory=list)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def action_distribution(self) -> dict:
        """Fraction of epochs spent in each (prefetchers, ocp) combination.

        This is the statistic behind the paper's Figure 17 case study.
        """
        counts: dict = {}
        for action in self.actions:
            key = (action.prefetchers_enabled, action.ocp_enabled)
            counts[key] = counts.get(key, 0) + 1
        total = max(1, len(self.actions))
        return {k: v / total for k, v in counts.items()}


@dataclass
class MultiCoreResult:
    """One :class:`SimulationResult` per core of a mix, without epochs
    or actions."""

    cores: List[SimulationResult] = field(default_factory=list)

    def weighted_speedup(self, baseline: "MultiCoreResult") -> float:
        """Geometric-mean per-core speedup against a baseline run."""
        if len(self.cores) != len(baseline.cores):
            raise ValueError("core count mismatch between runs")
        product = 1.0
        for mine, base in zip(self.cores, baseline.cores):
            if base.ipc <= 0:
                raise ValueError(f"baseline IPC is zero for {base.workload}")
            product *= mine.ipc / base.ipc
        return product ** (1.0 / len(self.cores))


def build_epoch_telemetry(
    dram: MainMemory,
    epoch_index: int,
    stats: SimStats,
    start: SimStats,
    cycles: float,
    busy_cycles: float,
    start_kinds: Tuple[int, int, int, int],
) -> EpochTelemetry:
    """One epoch's telemetry (paper Tables 1-2): the counter delta since
    ``start`` plus the DRAM request mix since ``start_kinds``."""
    delta = stats.delta_from(start)
    demand, prefetch, ocp, writeback = (
        cur - prev
        for cur, prev in zip(dram.kind_counts(), start_kinds)
    )
    total = demand + prefetch + ocp + writeback
    total_dram = max(1, total)
    pf_acc = (
        delta.prefetches_useful / delta.prefetches_issued
        if delta.prefetches_issued
        else 0.0
    )
    ocp_acc = (
        delta.ocp_correct / delta.ocp_predictions
        if delta.ocp_predictions
        else 0.0
    )
    demand_misses = max(1, delta.llc_misses)
    return EpochTelemetry(
        epoch_index=epoch_index,
        instructions=delta.instructions,
        cycles=cycles,
        loads=delta.loads,
        mispredicted_branches=delta.mispredicted_branches,
        llc_misses=delta.llc_misses,
        llc_miss_latency_sum=delta.llc_miss_latency_sum,
        prefetcher_accuracy=min(1.0, pf_acc),
        ocp_accuracy=min(1.0, ocp_acc),
        bandwidth_usage=min(1.0, busy_cycles / cycles) if cycles else 0.0,
        cache_pollution=min(1.0, delta.pollution_misses / demand_misses),
        prefetch_bandwidth_share=prefetch / total_dram,
        ocp_bandwidth_share=ocp / total_dram,
        demand_bandwidth_share=demand / total_dram,
        prefetches_issued=delta.prefetches_issued,
        ocp_predictions=delta.ocp_predictions,
        dram_requests=total,
    )


def reset_measured_stats(hierarchy: CacheHierarchy) -> None:
    """Zero every measured counter of ``hierarchy`` at the warmup end.

    The counters are the hierarchy's :class:`SimStats` alone: caches,
    DRAM and predictors keep their state, so a core of a mix resets
    exactly what a single-core run does and leaves the shared LLC and
    DRAM alone.
    """
    stats = hierarchy.stats
    for f in fields(SimStats):
        setattr(stats, f.name, f.default)


class MeasuredRegion:
    """One core's measured region: the clock it starts at, the number of
    epochs ended so far, and the mark (stats snapshot, clock, DRAM busy
    cycles and request-kind counts) the current epoch's telemetry is
    taken from.

    A checkpoint or a lockstep fork deep-copies a region together with
    its hierarchy.  A single-core run and each core of a mix build their
    region alike.
    """

    __slots__ = ("hierarchy", "start_cycles", "epochs_ended",
                 "_stats", "_cycles", "_busy", "_kinds")

    def __init__(self, hierarchy: CacheHierarchy) -> None:
        self.hierarchy = hierarchy
        self.start_cycles = 0.0
        self.epochs_ended = 0
        self._mark(0.0)

    def _mark(self, cycles: float) -> None:
        dram = self.hierarchy.dram
        self._stats = self.hierarchy.stats.snapshot()
        self._cycles = cycles
        self._busy = dram.busy_cycles
        self._kinds = dram.kind_counts()

    def end_warmup(self, cycles: float) -> None:
        """End the warmup at clock ``cycles``: caches and predictors stay
        warm; the measured counters and the epoch restart."""
        self.start_cycles = cycles
        reset_measured_stats(self.hierarchy)
        self._mark(cycles)

    def end_epoch(self, cycles: float) -> EpochTelemetry:
        """The telemetry since the mark, re-marked at clock ``cycles``;
        closes the epoch of the hierarchy's feature tracker too, once for
        every policy that reads it."""
        hierarchy = self.hierarchy
        dram = hierarchy.dram
        telemetry = build_epoch_telemetry(
            dram, self.epochs_ended, hierarchy.stats, self._stats,
            cycles - self._cycles, dram.busy_cycles - self._busy,
            self._kinds)
        if hierarchy.tracker is not None:
            hierarchy.tracker.close_epoch(telemetry)
        self.epochs_ended += 1
        self._mark(cycles)
        return telemetry

    def result(self, workload: str, cycles: float,
               epochs: Sequence[EpochTelemetry] = (),
               actions: Sequence[CoordinationAction] = (),
               ) -> SimulationResult:
        """The core's result at clock ``cycles``: the measured counters
        and the cycles since the warmup end."""
        stats = self.hierarchy.stats
        stats.cycles = cycles - self.start_cycles
        return SimulationResult(workload, stats, stats.instructions,
                                stats.cycles, list(epochs), list(actions))
