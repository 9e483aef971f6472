"""Multi-core simulation: private L1D/L2C per core, shared LLC and DRAM.

Mirrors the paper's multi-core methodology (§6.1): each core runs its own
workload trace (replayed as needed), has private L1D/L2C with its own
prefetchers and OCP, and contends for the shared LLC and the shared DRAM
channel.  Each core also runs its *own* coordination-policy instance
(Athena is per-core hardware), using the single-core-tuned configuration
unaltered — exactly the paper's §7.4 setup.

Cores are interleaved in time order.  The reference semantics are the
seed implementation's per-instruction heap: at every step the core with
the smallest ``(clock, core_id)`` executes its next instruction, so DRAM
and LLC see an (approximately) time-ordered request stream and bandwidth
contention behaves like a shared channel.

Each core is a generator, :meth:`_CoreContext.events`, that runs the
single-core simulator's block/segment loop over its trace (replaying it
from the start while the core is short of its quota).  Only instructions
that touch shared state or sample it need global ordering: loads and
stores (shared LLC and DRAM), and the instructions whose retirement ends
an epoch or the warmup (the transitions read shared DRAM telemetry).  The
generator yields its clock before each of them and executes it when
resumed; everything in between — unit-latency rows and mispredicted
branches — is private to the core and runs inlined without a yield.
:meth:`MultiCoreSimulator.run` keeps a heap of ``(clock, core_id)`` and
always resumes the smallest entry, which is the key the per-instruction
heap would pop that instruction with, so shared-state mutations happen
in the identical order and the results are bit-identical (pinned by the
multicore golden cases in ``tests/golden/`` and by the per-instruction
reference in ``tests/test_multicore_oracle.py``, materialized and
streamed at any block size).

The warmup reset, each epoch's telemetry and each core's
:class:`~repro.sim.region.SimulationResult` come from the core's
:class:`~repro.sim.region.MeasuredRegion`, the owner of the measured
region that the single-core loop uses too; the generator keeps only its
epoch schedule.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Union

if TYPE_CHECKING:  # avoid a sim <-> policies import cycle
    from ..policies.base import CoordinationPolicy
from ..workloads.streaming import TraceStream, trace_blocks
from ..workloads.trace import FLAG_DEP, FLAG_LOAD, FLAG_STORE, Trace
from .cache import Cache
from .cpu import CoreModel
from .dram import MainMemory
from .hierarchy import CacheHierarchy
from .params import SystemParams
from .region import MeasuredRegion, SimulationResult
from .simulator import _MEM, Simulator, _slow_rows


@dataclass
class MultiCoreResult:
    """One :class:`~repro.sim.region.SimulationResult` per core, without
    epochs or actions."""

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


#: a count no run ever reaches (schedules nothing)
_NEVER = 1 << 62


class _CoreContext:
    """One core of a multi-core run: its trace, private hierarchy, core
    model and coordination policy."""

    def __init__(
        self,
        trace: Union[Trace, TraceStream],
        hierarchy: CacheHierarchy,
        policy: Optional["CoordinationPolicy"],
    ) -> None:
        self.trace = trace
        self.hierarchy = hierarchy
        self.policy = policy
        self.core = CoreModel(hierarchy.params.core)
        self.region = MeasuredRegion(hierarchy, shared_llc=True)
        if policy is not None:
            policy.attach(hierarchy)

    def events(self, epoch_length: int, warmup: int,
               limit: int) -> Iterator[float]:
        """Run this core's first ``limit`` instructions, replaying its
        trace as often as needed.

        Yields the core's clock before each instruction that must be
        globally ordered, and executes that instruction when resumed:
        loads and stores (they reach the shared LLC and DRAM) and the
        instructions whose retirement ends an epoch or the ``warmup``
        (the transitions read the shared DRAM's telemetry).  The rows in
        between are private to the core and run without a yield.

        The loop is :meth:`Simulator._loop`'s: per block, the slow rows
        from :func:`~repro.sim.simulator._slow_rows`, and segments that
        end at the block end, the next transition or ``limit``.
        """
        trace = self.trace
        hierarchy = self.hierarchy
        policy = self.policy
        core = self.core
        region = self.region
        stats = hierarchy.stats
        hier_load = hierarchy.load
        hier_store = hierarchy.store
        block_keys = hierarchy.block_keys
        ring = core._commit_ring
        rob = core._rob
        inv_width = core._inv_width
        penalty = core._penalty
        # The core's timing state lives in locals until the core finishes.
        idx = core._index
        next_dispatch = core._next_dispatch
        last_commit = core._last_commit
        last_load_ready = core._last_load_ready

        count = 0  # instructions retired, replays included
        # the counts whose instruction ends the next epoch / the warmup
        next_epoch = epoch_length if policy is not None else _NEVER
        warm_end = warmup or _NEVER
        while True:  # one pass over the trace per replay
            for block in trace_blocks(trace):
                bn = len(block)
                slow, slow_flags, slow_pcs, slow_addrs, slow_keys, \
                    branch_prefix = _slow_rows(block, block_keys)
                sp = 0
                il = 0
                while il < bn:
                    # One segment, up to the nearest of the block end, the
                    # next transition and the limit.  ``edge`` is the
                    # position of the segment's transition instruction,
                    # ``stop`` when it has none.
                    stop = il + (next_epoch if next_epoch < warm_end
                                 else warm_end) - count
                    if stop <= bn:
                        edge = stop - 1
                    else:
                        stop = edge = bn
                    if il + limit - count < stop:
                        stop = edge = il + limit - count
                    start = il
                    loads = stores = mispredicts = 0
                    while True:
                        # Inlined CoreModel.run_simple over the unit-latency
                        # rows up to the next slow row or the edge.
                        nxt = slow[sp]
                        cut = nxt if nxt < edge else edge
                        for _ in range(cut - il):
                            pos = idx % rob
                            slot = ring[pos]
                            dispatch = next_dispatch \
                                if next_dispatch >= slot else slot
                            ready = dispatch + 1.0
                            commit = last_commit + inv_width
                            if ready > commit:
                                commit = ready
                            ring[pos] = commit
                            idx += 1
                            last_commit = commit
                            next_dispatch += inv_width
                        if cut == stop:
                            break
                        # The row at ``cut``: a slow row, or else the
                        # transition instruction as a unit-latency row.
                        # (A slow row's flags are never 0.)
                        f = slow_flags[sp] if cut == nxt else 0
                        if f & _MEM or cut == edge:
                            yield last_commit
                        # Inlined CoreModel.begin/finish around the row.
                        pos = idx % rob
                        slot = ring[pos]
                        dispatch = next_dispatch if next_dispatch >= slot \
                            else slot
                        if f & FLAG_LOAD:
                            if f & FLAG_DEP and last_load_ready > dispatch:
                                dispatch = last_load_ready
                            ready = last_load_ready = dispatch + hier_load(
                                slow_pcs[sp], slow_addrs[sp], dispatch,
                                slow_keys[sp]).latency
                            loads += 1
                        elif f & FLAG_STORE:
                            ready = dispatch + hier_store(
                                slow_pcs[sp], slow_addrs[sp], dispatch)
                            stores += 1
                        else:
                            ready = dispatch + 1.0
                        commit = last_commit + inv_width
                        if ready > commit:
                            commit = ready
                        ring[pos] = commit
                        idx += 1
                        last_commit = commit
                        next_dispatch += inv_width
                        if f:
                            sp += 1
                            if not f & _MEM:
                                # The front end refills only after the
                                # mispredicted branch resolves.
                                ready += penalty
                                if ready > next_dispatch:
                                    next_dispatch = ready
                                mispredicts += 1
                        il = cut + 1
                        if il == stop:
                            break
                    il = stop
                    count += stop - start
                    stats.instructions += stop - start
                    stats.branches += branch_prefix[stop] \
                        - branch_prefix[start]
                    stats.loads += loads
                    stats.stores += stores
                    stats.mispredicted_branches += mispredicts

                    if count == warm_end:
                        # End of this core's warmup (paper §6.1); the
                        # shared LLC's hit counters are left alone, since
                        # it is still mid-warmup for other cores.
                        warm_end = _NEVER
                        region.end_warmup(last_commit)
                    if count == next_epoch:
                        next_epoch += epoch_length
                        Simulator._apply_action(hierarchy, policy.decide(
                            region.end_epoch(last_commit)))
                    if count == limit:
                        core._index = idx
                        core._next_dispatch = next_dispatch
                        core._last_commit = last_commit
                        core._last_load_ready = last_load_ready
                        return


class MultiCoreSimulator:
    """Run N workloads on N cores with shared LLC + DRAM."""

    def __init__(
        self,
        traces: Sequence[Union[Trace, TraceStream]],
        params: SystemParams,
        hierarchy_factory,
        policy_factory,
        instructions_per_core: int,
        epoch_length: int = 250,
        warmup_fraction: float = 0.0,
    ) -> None:
        """``hierarchy_factory(params, llc, dram)`` builds one core's
        private hierarchy (with its prefetchers/OCP) around the shared LLC
        and DRAM; ``policy_factory()`` builds one per-core policy instance
        (or returns ``None`` for uncoordinated runs)."""
        if not traces:
            raise ValueError("need at least one trace")
        if not all(len(trace) for trace in traces):
            raise ValueError("cannot replay an empty trace")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self.params = params
        self.shared_llc = Cache(params.llc)
        self.shared_dram = MainMemory(params.dram)
        self.instructions_per_core = instructions_per_core
        self.epoch_length = epoch_length
        self.warmup_instructions = int(instructions_per_core
                                       * warmup_fraction)
        self.contexts = [
            _CoreContext(
                trace=trace,
                hierarchy=hierarchy_factory(
                    params, self.shared_llc, self.shared_dram
                ),
                policy=policy_factory(),
            )
            for trace in traces
        ]

    def run(self) -> MultiCoreResult:
        cores = [ctx.events(self.epoch_length, self.warmup_instructions,
                            self.instructions_per_core)
                 for ctx in self.contexts]
        heap = []
        for cid, events in enumerate(cores):
            clock = next(events, None)
            if clock is not None:
                heap.append((clock, cid))
        heapq.heapify(heap)
        heapreplace = heapq.heapreplace
        heappop = heapq.heappop
        while heap:
            # The core with the smallest (clock, core_id) executes its
            # pending instruction and runs on to its next one.
            cid = heap[0][1]
            clock = next(cores[cid], None)
            if clock is None:
                heappop(heap)
            else:
                heapreplace(heap, (clock, cid))
        return MultiCoreResult(cores=[
            ctx.region.result(ctx.trace.name, ctx.core.cycles)
            for ctx in self.contexts
        ])
