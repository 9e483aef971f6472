"""Single-core trace-driven simulator with epoch-granularity coordination.

Drives one :class:`~repro.workloads.trace.Trace` through a
:class:`~repro.sim.hierarchy.CacheHierarchy` using the analytical core
timing model.  Every ``epoch_length`` retired instructions the simulator
snapshots the epoch's telemetry (paper Table 1 features + Table 2 reward
metrics) and asks the coordination policy for the next epoch's action —
this is Athena's agent-environment loop (paper Figure 5).

The run loop is chunked: trace positions needing individual handling
(loads, stores, mispredicted branches) are precomputed with numpy, and
the runs of unit-latency instructions between them — nops and correctly
predicted branches — are stepped in bulk through
:meth:`~repro.sim.cpu.CoreModel.run_simple`, with branch counts taken
from a prefix sum.  Chunks additionally break at epoch boundaries and at
the warmup end, so policy decisions and the measurement reset happen at
exactly the same instruction positions (and with bit-identical timing)
as the one-instruction-at-a-time loop they replace.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

import numpy as np

if TYPE_CHECKING:  # imported lazily to avoid a sim <-> policies cycle
    from ..policies.base import CoordinationAction, CoordinationPolicy

from ..workloads.streaming import TraceStream
from ..workloads.trace import (
    FLAG_BRANCH,
    FLAG_DEP,
    FLAG_LOAD,
    FLAG_MISPRED,
    FLAG_STORE,
    Trace,
)
from .cpu import CoreModel
from .dram import MainMemory
from .hierarchy import CacheHierarchy
from .stats import EpochTelemetry, SimStats


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    workload: str
    stats: SimStats
    instructions: int
    cycles: float
    epochs: List[EpochTelemetry] = field(default_factory=list)
    actions: List["CoordinationAction"] = field(default_factory=list)

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
class SimCheckpoint:
    """A re-enterable snapshot of a streamed run at one trace position.

    Captured by ``Simulator.run(checkpoint_at=...)`` after the
    instruction at ``position - 1`` retired (and any warmup/epoch
    transition at that point fired); :meth:`Simulator.resume` re-enters
    the run from here against a fresh block stream, so a long trace's
    measured region is reachable without replaying the prefix trace
    *simulation* (the stream re-emits and skips the prefix rows, or
    seeks when it re-blocks a cached whole trace).
    ``state`` is one deep-copied object graph — hierarchy, core, policy
    and loop counters together — so every shared reference inside it
    (``stats`` *is* ``hierarchy.stats``; the policy is attached to the
    hierarchy) survives intact.
    """

    position: int
    epoch_length: int
    warmup_fraction: float
    state: dict


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


class Simulator:
    """Runs one workload on one core."""

    def __init__(
        self,
        trace: Union[Trace, TraceStream],
        hierarchy: CacheHierarchy,
        policy: Optional["CoordinationPolicy"] = None,
        epoch_length: int = 250,
        warmup_fraction: float = 0.2,
    ) -> None:
        if epoch_length <= 0:
            raise ValueError("epoch_length must be positive")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self.trace = trace
        self.hierarchy = hierarchy
        self.policy = policy
        self.epoch_length = epoch_length
        self.warmup_fraction = warmup_fraction
        self.core = CoreModel(hierarchy.params.core)
        #: set by a streamed run when ``checkpoint_at`` is reached
        self.checkpoint: Optional[SimCheckpoint] = None
        if policy is not None:
            policy.attach(hierarchy)

    def run(self, checkpoint_at: Optional[int] = None) -> SimulationResult:
        if isinstance(self.trace, TraceStream):
            return self._run_streamed(checkpoint_at)
        if checkpoint_at is not None:
            raise ValueError("checkpoint_at requires a streamed trace")
        trace = self.trace
        hierarchy = self.hierarchy
        core = self.core
        stats = hierarchy.stats
        policy = self.policy
        epoch_len = self.epoch_length
        dram = hierarchy.dram

        n = len(trace)
        flags_np = trace.flags
        # Convert the numpy trace columns to plain Python scalars once,
        # instead of paying an int(np.int64) conversion per instruction.
        pcs = trace.pcs.tolist()
        addrs = trace.addrs.tolist()
        flags = flags_np.tolist()
        warmup_end = int(n * self.warmup_fraction)

        # Positions that need individual handling; everything between two
        # of them is a run of unit-latency non-memory instructions.
        slow_indices = np.flatnonzero(
            (flags_np & (FLAG_LOAD | FLAG_STORE | FLAG_MISPRED)) != 0
        ).tolist()
        slow_indices.append(n)  # sentinel: no bounds check in the loop
        # branch_prefix[i] = branches among the first i instructions.
        branch_prefix = np.concatenate((
            np.zeros(1, dtype=np.int64),
            np.cumsum((flags_np & FLAG_BRANCH) != 0, dtype=np.int64),
        )).tolist()

        epochs: List[EpochTelemetry] = []
        actions: List["CoordinationAction"] = []
        epoch_index = 0
        epoch_start_snapshot = stats.snapshot()
        epoch_start_cycles = 0.0
        epoch_start_busy = dram.busy_cycles
        epoch_start_kinds = dram.kind_counts()

        warmup_stats_reset_done = warmup_end == 0
        measure_start_cycles = 0.0

        hier_load = hierarchy.load
        hier_store = hierarchy.store
        core_step = core.step
        run_simple = core.run_simple
        # Stable core internals for the inlined begin/finish below (the
        # mutable scalars are read/written through ``core`` so the state
        # stays coherent with run_simple/step).
        ring = core._commit_ring
        rob = core._rob
        inv_width = core._inv_width

        count = stats.instructions  # mirrors stats.instructions
        have_policy = policy is not None
        # Next instruction count at which "count % epoch_len == 0" holds
        # (tracked additively: cheaper than a modulo per instruction).
        next_epoch = count - count % epoch_len + epoch_len
        slow_pos = 0
        i = 0
        while i < n:
            next_slow = slow_indices[slow_pos]
            if next_slow > i:
                # Bulk-run the simple gap, stopping at the next epoch or
                # warmup boundary so the per-instruction checks below fire
                # at exactly the positions the scalar loop checked them.
                limit = next_slow
                if have_policy:
                    boundary = i + next_epoch - count
                    if boundary < limit:
                        limit = boundary
                if not warmup_stats_reset_done:
                    boundary = i + warmup_end - count
                    if boundary < limit:
                        limit = boundary
                k = limit - i
                if k == 1:
                    # Inlined single-step run_simple (1-instruction gaps
                    # between memory accesses are the common case).
                    idx = core._index
                    pos = idx % rob
                    slot_time = ring[pos]
                    dispatch = core._next_dispatch
                    if slot_time > dispatch:
                        dispatch = slot_time
                    ready = dispatch + 1.0
                    commit = core._last_commit + inv_width
                    if ready > commit:
                        commit = ready
                    ring[pos] = commit
                    core._index = idx + 1
                    core._last_commit = commit
                    core._next_dispatch = core._next_dispatch + inv_width
                else:
                    run_simple(k)
                stats.branches += branch_prefix[limit] - branch_prefix[i]
                count += k
                i = limit
            else:
                f = flags[i]
                if f & FLAG_LOAD:
                    # Inlined CoreModel.begin/finish around the load.
                    idx = core._index
                    slot_time = ring[idx % rob]
                    dispatch = core._next_dispatch
                    if slot_time > dispatch:
                        dispatch = slot_time
                    if f & FLAG_DEP:
                        load_ready = core._last_load_ready
                        if load_ready > dispatch:
                            dispatch = load_ready
                    result = hier_load(pcs[i], addrs[i], dispatch)
                    ready = dispatch + result.latency
                    commit = core._last_commit + inv_width
                    if ready > commit:
                        commit = ready
                    ring[idx % rob] = commit
                    core._index = idx + 1
                    core._last_commit = commit
                    core._next_dispatch = core._next_dispatch + inv_width
                    core._last_load_ready = ready
                    stats.loads += 1
                elif f & FLAG_STORE:
                    idx = core._index
                    slot_time = ring[idx % rob]
                    dispatch = core._next_dispatch
                    if slot_time > dispatch:
                        dispatch = slot_time
                    latency = hier_store(pcs[i], addrs[i], dispatch)
                    ready = dispatch + latency
                    commit = core._last_commit + inv_width
                    if ready > commit:
                        commit = ready
                    ring[idx % rob] = commit
                    core._index = idx + 1
                    core._last_commit = commit
                    core._next_dispatch = core._next_dispatch + inv_width
                    stats.stores += 1
                elif f & FLAG_BRANCH:
                    mispred = bool(f & FLAG_MISPRED)
                    core_step(1.0, False, False, mispred)
                    stats.branches += 1
                    if mispred:
                        stats.mispredicted_branches += 1
                else:
                    core_step()
                count += 1
                i += 1
                slow_pos += 1

            if not warmup_stats_reset_done and count >= warmup_end:
                # End of warm-up: caches and predictors stay warm, but the
                # reported statistics start here (paper §6.1 methodology).
                measure_start_cycles = core.cycles
                self._reset_measured_stats(stats, hierarchy)
                warmup_stats_reset_done = True
                count = stats.instructions
                next_epoch = 0  # count just reset: 0 % epoch_len == 0 fires
                epoch_start_snapshot = stats.snapshot()
                epoch_start_cycles = core.cycles
                epoch_start_busy = dram.busy_cycles
                epoch_start_kinds = dram.kind_counts()

            if have_policy and count == next_epoch:
                # ``stats.instructions`` is maintained lazily (local
                # ``count`` is the live value); sync it where it is read.
                stats.instructions = count
                telemetry = build_epoch_telemetry(
                    dram,
                    epoch_index,
                    stats,
                    epoch_start_snapshot,
                    core.cycles - epoch_start_cycles,
                    dram.busy_cycles - epoch_start_busy,
                    epoch_start_kinds,
                )
                action = policy.decide(telemetry)
                self._apply_action(action)
                epochs.append(telemetry)
                actions.append(action)
                epoch_index += 1
                next_epoch += epoch_len
                epoch_start_snapshot = stats.snapshot()
                epoch_start_cycles = core.cycles
                epoch_start_busy = dram.busy_cycles
                epoch_start_kinds = dram.kind_counts()

        stats.instructions = count
        measured_cycles = core.cycles - measure_start_cycles
        stats.cycles = measured_cycles
        return SimulationResult(
            workload=trace.name,
            stats=stats,
            instructions=stats.instructions,
            cycles=measured_cycles,
            epochs=epochs,
            actions=actions,
        )

    # ------------------------------------------------------------ streamed run

    def _run_streamed(
        self, checkpoint_at: Optional[int] = None
    ) -> SimulationResult:
        """Block-at-a-time variant of :meth:`run`.

        Identical loop body, applied per block with a local index: the
        materialized loop's chunk seams (slow positions, epoch
        boundaries, warmup end) all express their limits as offsets from
        the running instruction counter, so adding block edges as extra
        chunk breaks changes nothing — ``run_simple(k1); run_simple(k2)``
        is bit-identical to ``run_simple(k1 + k2)``.
        """
        if checkpoint_at is not None and \
                not 0 < checkpoint_at <= len(self.trace):
            raise ValueError("checkpoint_at must be in (0, len(trace)]")
        stats = self.hierarchy.stats
        dram = self.hierarchy.dram
        count = stats.instructions
        state = {
            "count": count,
            "next_epoch": count - count % self.epoch_length
            + self.epoch_length,
            "epoch_index": 0,
            "epochs": [],
            "actions": [],
            "warmup_stats_reset_done":
                int(len(self.trace) * self.warmup_fraction) == 0,
            "measure_start_cycles": 0.0,
            "epoch_start_snapshot": stats.snapshot(),
            "epoch_start_cycles": 0.0,
            "epoch_start_busy": dram.busy_cycles,
            "epoch_start_kinds": dram.kind_counts(),
        }
        return self._stream_loop(iter(self.trace), state, checkpoint_at)

    @classmethod
    def resume(
        cls, stream: TraceStream, checkpoint: SimCheckpoint
    ) -> SimulationResult:
        """Finish a streamed run from a :class:`SimCheckpoint`.

        The checkpoint's state graph is deep-copied again, so the same
        checkpoint can be resumed repeatedly (each resume gets private
        mutable state).  The stream only needs to cover positions from
        ``checkpoint.position`` on: a cold stream re-emits and skips the
        prefix rows; one re-blocking a cached whole trace seeks to it.
        """
        state = copy.deepcopy(checkpoint.state)
        sim = cls.__new__(cls)
        sim.trace = stream
        sim.hierarchy = state.pop("hierarchy")
        sim.policy = state.pop("policy")
        sim.core = state.pop("core")
        sim.epoch_length = checkpoint.epoch_length
        sim.warmup_fraction = checkpoint.warmup_fraction
        sim.checkpoint = None
        return sim._stream_loop(
            stream.iter_from(checkpoint.position), state, None
        )

    def _stream_loop(
        self,
        blocks,
        st: dict,
        checkpoint_at: Optional[int],
    ) -> SimulationResult:
        stream = self.trace
        hierarchy = self.hierarchy
        core = self.core
        stats = hierarchy.stats
        policy = self.policy
        epoch_len = self.epoch_length
        dram = hierarchy.dram

        n = len(stream)
        warmup_end = int(n * self.warmup_fraction)

        epochs: List[EpochTelemetry] = st["epochs"]
        actions: List["CoordinationAction"] = st["actions"]
        epoch_index = st["epoch_index"]
        epoch_start_snapshot = st["epoch_start_snapshot"]
        epoch_start_cycles = st["epoch_start_cycles"]
        epoch_start_busy = st["epoch_start_busy"]
        epoch_start_kinds = st["epoch_start_kinds"]
        warmup_stats_reset_done = st["warmup_stats_reset_done"]
        measure_start_cycles = st["measure_start_cycles"]
        count = st["count"]
        next_epoch = st["next_epoch"]
        have_policy = policy is not None
        captured = checkpoint_at is None

        hier_load = hierarchy.load
        hier_store = hierarchy.store
        core_step = core.step
        run_simple = core.run_simple
        ring = core._commit_ring
        rob = core._rob
        inv_width = core._inv_width

        for block in blocks:
            base = block.start
            flags_np = block.flags
            pcs = block.pcs.tolist()
            addrs = block.addrs.tolist()
            flags = flags_np.tolist()
            bn = len(flags)
            slow_indices = np.flatnonzero(
                (flags_np & (FLAG_LOAD | FLAG_STORE | FLAG_MISPRED)) != 0
            ).tolist()
            slow_indices.append(bn)
            branch_prefix = np.concatenate((
                np.zeros(1, dtype=np.int64),
                np.cumsum((flags_np & FLAG_BRANCH) != 0, dtype=np.int64),
            )).tolist()
            slow_pos = 0
            il = 0
            while il < bn:
                next_slow = slow_indices[slow_pos]
                if next_slow > il:
                    limit = next_slow
                    if have_policy:
                        boundary = il + next_epoch - count
                        if boundary < limit:
                            limit = boundary
                    if not warmup_stats_reset_done:
                        boundary = il + warmup_end - count
                        if boundary < limit:
                            limit = boundary
                    if not captured:
                        boundary = checkpoint_at - base
                        if boundary < limit:
                            limit = boundary
                    k = limit - il
                    if k == 1:
                        idx = core._index
                        pos = idx % rob
                        slot_time = ring[pos]
                        dispatch = core._next_dispatch
                        if slot_time > dispatch:
                            dispatch = slot_time
                        ready = dispatch + 1.0
                        commit = core._last_commit + inv_width
                        if ready > commit:
                            commit = ready
                        ring[pos] = commit
                        core._index = idx + 1
                        core._last_commit = commit
                        core._next_dispatch = core._next_dispatch + inv_width
                    else:
                        run_simple(k)
                    stats.branches += branch_prefix[limit] \
                        - branch_prefix[il]
                    count += k
                    il = limit
                else:
                    f = flags[il]
                    if f & FLAG_LOAD:
                        idx = core._index
                        slot_time = ring[idx % rob]
                        dispatch = core._next_dispatch
                        if slot_time > dispatch:
                            dispatch = slot_time
                        if f & FLAG_DEP:
                            load_ready = core._last_load_ready
                            if load_ready > dispatch:
                                dispatch = load_ready
                        result = hier_load(pcs[il], addrs[il], dispatch)
                        ready = dispatch + result.latency
                        commit = core._last_commit + inv_width
                        if ready > commit:
                            commit = ready
                        ring[idx % rob] = commit
                        core._index = idx + 1
                        core._last_commit = commit
                        core._next_dispatch = core._next_dispatch + inv_width
                        core._last_load_ready = ready
                        stats.loads += 1
                    elif f & FLAG_STORE:
                        idx = core._index
                        slot_time = ring[idx % rob]
                        dispatch = core._next_dispatch
                        if slot_time > dispatch:
                            dispatch = slot_time
                        latency = hier_store(pcs[il], addrs[il], dispatch)
                        ready = dispatch + latency
                        commit = core._last_commit + inv_width
                        if ready > commit:
                            commit = ready
                        ring[idx % rob] = commit
                        core._index = idx + 1
                        core._last_commit = commit
                        core._next_dispatch = core._next_dispatch + inv_width
                        stats.stores += 1
                    elif f & FLAG_BRANCH:
                        mispred = bool(f & FLAG_MISPRED)
                        core_step(1.0, False, False, mispred)
                        stats.branches += 1
                        if mispred:
                            stats.mispredicted_branches += 1
                    else:
                        core_step()
                    count += 1
                    il += 1
                    slow_pos += 1

                if not warmup_stats_reset_done and count >= warmup_end:
                    measure_start_cycles = core.cycles
                    self._reset_measured_stats(stats, hierarchy)
                    warmup_stats_reset_done = True
                    count = stats.instructions
                    next_epoch = 0
                    epoch_start_snapshot = stats.snapshot()
                    epoch_start_cycles = core.cycles
                    epoch_start_busy = dram.busy_cycles
                    epoch_start_kinds = dram.kind_counts()

                if have_policy and count == next_epoch:
                    stats.instructions = count
                    telemetry = build_epoch_telemetry(
                        dram,
                        epoch_index,
                        stats,
                        epoch_start_snapshot,
                        core.cycles - epoch_start_cycles,
                        dram.busy_cycles - epoch_start_busy,
                        epoch_start_kinds,
                    )
                    action = policy.decide(telemetry)
                    self._apply_action(action)
                    epochs.append(telemetry)
                    actions.append(action)
                    epoch_index += 1
                    next_epoch += epoch_len
                    epoch_start_snapshot = stats.snapshot()
                    epoch_start_cycles = core.cycles
                    epoch_start_busy = dram.busy_cycles
                    epoch_start_kinds = dram.kind_counts()

                if not captured and base + il == checkpoint_at:
                    captured = True
                    stats.instructions = count
                    self.checkpoint = SimCheckpoint(
                        position=checkpoint_at,
                        epoch_length=epoch_len,
                        warmup_fraction=self.warmup_fraction,
                        state=copy.deepcopy({
                            "hierarchy": hierarchy,
                            "core": core,
                            "policy": policy,
                            "count": count,
                            "next_epoch": next_epoch,
                            "epoch_index": epoch_index,
                            "epochs": epochs,
                            "actions": actions,
                            "warmup_stats_reset_done":
                                warmup_stats_reset_done,
                            "measure_start_cycles": measure_start_cycles,
                            "epoch_start_snapshot": epoch_start_snapshot,
                            "epoch_start_cycles": epoch_start_cycles,
                            "epoch_start_busy": epoch_start_busy,
                            "epoch_start_kinds": epoch_start_kinds,
                        }),
                    )

        stats.instructions = count
        measured_cycles = core.cycles - measure_start_cycles
        stats.cycles = measured_cycles
        return SimulationResult(
            workload=stream.name,
            stats=stats,
            instructions=stats.instructions,
            cycles=measured_cycles,
            epochs=epochs,
            actions=actions,
        )

    # ------------------------------------------------------------------ helpers

    @staticmethod
    def _reset_measured_stats(
        stats: SimStats, hierarchy: Optional[CacheHierarchy] = None,
        include_shared_caches: bool = True,
    ) -> None:
        """Zero every measured counter at the warmup boundary.

        Also restarts the per-:class:`~repro.sim.cache.Cache` hit/miss
        counters (when a ``hierarchy`` is given) so post-warmup
        ``hit_rate`` reflects the measured region only.
        """
        preserved_instructions = 0  # measurement restarts from zero
        fresh = SimStats()
        for f in fields(fresh):
            setattr(stats, f.name, getattr(fresh, f.name))
        stats.instructions = preserved_instructions
        if hierarchy is not None:
            hierarchy.reset_cache_hit_counters(
                include_shared=include_shared_caches
            )

    def _apply_action(self, action: "CoordinationAction") -> None:
        self.hierarchy.set_prefetchers_enabled(action.prefetchers_enabled)
        self.hierarchy.set_ocp_enabled(action.ocp_enabled)
        self.hierarchy.set_degree_fraction(action.degree_fraction)
