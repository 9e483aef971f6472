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

The run loop reproduces that schedule at *event* granularity.  Only
instructions that touch shared state or sample it — loads/stores (LLC +
DRAM) and the epoch-boundary/warmup-reset transitions (which read shared
DRAM telemetry) — need global ordering; everything between two events of
one core is private (nops, predicted branches, mispredicted branches),
touches nothing shared, and is bulk-stepped through
:meth:`~repro.sim.cpu.CoreModel.run_simple` with branch counts taken from
a prefix sum.  Each core advances privately to just before its next
event; the heap then orders events by the same ``(clock before the event
instruction, core_id)`` key the per-instruction loop would have used, so
shared-state mutations happen in the identical order and the results are
bit-identical (pinned by the multicore golden cases in ``tests/golden/``
and by the per-instruction reference in
``tests/test_multicore_oracle.py``).

Every core reads its trace through one sliding window of blocks: a
materialized :class:`~repro.workloads.trace.Trace` in blocks of
:data:`~repro.workloads.streaming.TRACE_BLOCK_ROWS` rows, a
:class:`~repro.workloads.streaming.TraceStream` in its own; either way
blocks load lazily.  Each block precomputes its memory positions, their
OCP keys and, for the private gap after each one, the gap's length,
branch count and whether it is free of mispredicted branches.  The
common event — a memory access whose gap stays inside its block and
short of the next transition — runs fully inlined in the loop
(``begin``/``finish``, the access, the gap's ``run_simple`` steps); a
block's last memory event, transitions and gaps holding a mispredicted
branch take the generic path.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

import numpy as np

if TYPE_CHECKING:  # avoid a sim <-> policies import cycle
    from ..policies.base import CoordinationPolicy
from ..workloads.streaming import TraceStream, trace_blocks
from ..workloads.trace import (
    FLAG_BRANCH,
    FLAG_DEP,
    FLAG_LOAD,
    FLAG_MISPRED,
    FLAG_STORE,
    Trace,
)
from .cache import Cache
from .cpu import CoreModel
from .dram import MainMemory
from .hierarchy import CacheHierarchy
from .params import SystemParams
from .simulator import _MISPRED_BRANCH, Simulator, build_epoch_telemetry
from .stats import SimStats


@dataclass
class CoreResult:
    """Per-core outcome of a multi-core run."""

    workload: str
    instructions: int
    cycles: float
    stats: SimStats

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


@dataclass
class MultiCoreResult:
    cores: List[CoreResult] = field(default_factory=list)

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


#: sentinel index no run ever reaches (schedules nothing)
_NEVER = 1 << 62
_INF = float("inf")


class _WindowBlock:
    """One trace block resident in a core's sliding window.  The memory
    instructions' columns are pre-converted to plain scalars, and their
    OCP keys computed by ``block_keys``, for the event loop's fast path;
    the rest stays in numpy for the generic path.
    """

    __slots__ = ("start", "stop", "flags", "mispred", "branch_prefix",
                 "mem", "mem_pcs", "mem_addrs", "mem_flags", "mem_keys",
                 "n_gaps", "gap_len", "gap_clean", "gap_branches")

    def __init__(self, start: int, pcs, addrs, flags, block_keys) -> None:
        self.start = start
        self.stop = start + len(flags)
        self.flags = flags
        is_mem = (flags & (FLAG_LOAD | FLAG_STORE)) != 0
        mispred = ((flags & _MISPRED_BRANCH) == _MISPRED_BRANCH) & ~is_mem
        #: block-local non-memory mispredicted-branch positions (a
        #: mispredict flag without a branch flag is a plain step)
        self.mispred = np.flatnonzero(mispred).tolist()
        #: branch_prefix[i] = branches among the first i block positions
        self.branch_prefix = branch_prefix = np.concatenate((
            np.zeros(1, dtype=np.int64),
            np.cumsum((flags & FLAG_BRANCH) != 0, dtype=np.int64),
        ))
        mem = np.flatnonzero(is_mem)
        #: global indices of the instructions that touch the shared
        #: LLC/DRAM, and their pc/addr/flags columns
        self.mem = (mem + start).tolist()
        mem_pcs = pcs[mem]
        mem_addrs = addrs[mem]
        self.mem_pcs = mem_pcs.tolist()
        self.mem_addrs = mem_addrs.tolist()
        self.mem_flags = flags[mem].tolist()
        self.mem_keys = block_keys(mem_pcs, mem_addrs)
        # Per-gap aggregates for the run of private instructions between
        # consecutive memory positions, indexed by the leading one: its
        # length, branch count, and whether it is free of mispredicted
        # branches.  The block's last memory position has no entry: its
        # gap crosses a block seam or the replay boundary.
        lead = mem[:-1] + 1
        nxt = mem[1:]
        mis_prefix = np.concatenate((
            np.zeros(1, dtype=np.int64), np.cumsum(mispred, dtype=np.int64),
        ))
        self.gap_len = (nxt - lead).tolist()
        self.gap_branches = (branch_prefix[nxt] - branch_prefix[lead]).tolist()
        self.gap_clean = (mis_prefix[nxt] == mis_prefix[lead]).tolist()
        self.n_gaps = len(self.gap_len)


class _CoreContext:
    """Execution state of one core inside the multi-core event loop.

    The trace is consumed through a sliding window of
    :class:`_WindowBlock`: blocks of a materialized :class:`Trace` or a
    :class:`TraceStream` are pulled lazily as the schedule needs them and
    evicted once retired past, so the per-block lists stay O(window), not
    O(trace).  The schedule tracks the next memory event as a block plus
    an index into its ``mem`` positions.
    """

    def __init__(
        self,
        core_id: int,
        trace: Union[Trace, TraceStream],
        hierarchy: CacheHierarchy,
        policy: Optional["CoordinationPolicy"],
        epoch_length: int,
        warmup_instructions: int,
        limit: int,
    ) -> None:
        self.core_id = core_id
        self.trace = trace
        self.hierarchy = hierarchy
        self.policy = policy
        self.epoch_length = epoch_length
        self.core = CoreModel(hierarchy.params.core)
        self.retired = 0
        self.warmup_instructions = warmup_instructions
        self.measure_start_cycles = 0.0
        self._period = len(trace)
        self._blocks = partial(trace_blocks, trace)
        self._iter = self._blocks()
        #: blocks covering [window[0].start, _loaded_to), contiguous
        self._window: deque = deque()
        self._replay_base = 0
        self._loaded_to = 0
        #: the next memory event: its block, its index into ``mem``, and
        #: its global index (``_NEVER`` while none is loaded at or after
        #: ``retired``)
        self._mem_blk: Optional[_WindowBlock] = None
        self._mem_ptr = 0
        self._mem_next = _NEVER
        #: global indices of the next epoch-/warmup-transition instruction
        self._next_epoch = epoch_length - 1 if policy is not None else _NEVER
        self._warm_idx = (
            warmup_instructions - 1 if warmup_instructions else _NEVER
        )
        #: instructions this core retires before it stops
        self._limit = limit
        #: smallest global index no private run may cross: the next
        #: transition instruction, or ``_limit``
        self._boundary = min(limit, self._next_epoch, self._warm_idx)
        self._epoch_snapshot = hierarchy.stats.snapshot()
        self._epoch_cycles = 0.0
        self._epoch_busy = hierarchy.dram.busy_cycles
        self._epoch_kinds = hierarchy.dram.kind_counts()
        self._epoch_index = 0
        if policy is not None:
            policy.attach(hierarchy)

    # -- block window -------------------------------------------------------

    def _load_next_block(self) -> None:
        """Pull one more block into the window (restarting the trace at the
        replay boundary), evict blocks retired past, and schedule the new
        block's first memory event if none is pending."""
        try:
            block = next(self._iter)
        except StopIteration:
            self._replay_base += self._period
            self._iter = self._blocks()
            block = next(self._iter)
        wb = _WindowBlock(self._replay_base + block.start,
                          block.pcs, block.addrs, block.flags,
                          self.hierarchy.block_keys)
        window = self._window
        while window and window[0].stop <= self.retired:
            window.popleft()
        window.append(wb)
        self._loaded_to = wb.stop
        # Blocks load in order and only while no memory event is pending,
        # so the first one found is the next after ``retired``.
        if self._mem_next == _NEVER and wb.mem:
            self._mem_blk = wb
            self._mem_ptr = 0
            self._mem_next = wb.mem[0]

    def _block_at(self, index: int) -> _WindowBlock:
        """The window block containing global position ``index``, loading
        forward and evicting fully-retired blocks as needed."""
        while self._loaded_to <= index:
            self._load_next_block()
        window = self._window
        while window[0].stop <= index:
            window.popleft()
        return window[0]

    # -- event schedule -----------------------------------------------------

    def _advance_mem_ptr(self) -> None:
        """Consume the pending memory event from the schedule."""
        ptr = self._mem_ptr + 1
        blk = self._mem_blk
        if ptr < len(blk.mem):
            self._mem_ptr = ptr
            self._mem_next = blk.mem[ptr]
        else:  # found lazily by next_event in the blocks that follow
            self._mem_blk = None
            self._mem_next = _NEVER

    def next_event(self) -> int:
        """Smallest global index >= ``retired`` whose instruction must be
        globally ordered (memory access, epoch boundary, or warmup end);
        the core's limit when it finishes first."""
        cap = self._boundary
        while self._mem_next == _NEVER and self._loaded_to < cap:
            self._load_next_block()
        nxt = self._mem_next
        return nxt if nxt < cap else cap

    def advance_private(self, start: int, stop: int) -> None:
        """Bulk-execute global positions ``[start, stop)`` — guaranteed
        free of events: runs of unit-latency instructions stepped through
        ``run_simple``, mispredicted branches stepped individually."""
        if stop <= start:
            return
        stats = self.hierarchy.stats
        core = self.core
        run_simple = core.run_simple
        step = core.step
        g = start
        while g < stop:
            blk = self._block_at(g)
            i = g - blk.start
            j = min(blk.stop, stop) - blk.start
            prefix = blk.branch_prefix
            stats.branches += int(prefix[j] - prefix[i])
            mispreds = blk.mispred
            pos = i
            for m in mispreds[bisect_left(mispreds, i):
                              bisect_left(mispreds, j)]:
                if m > pos:
                    run_simple(m - pos)
                step(1.0, False, False, True)
                stats.mispredicted_branches += 1
                pos = m + 1
            if j > pos:
                run_simple(j - pos)
            g = blk.start + j
        stats.instructions += stop - start
        self.retired = stop

    def execute_event(self) -> None:
        """Execute the single instruction at ``retired`` (the pending
        event) plus any epoch/warmup transition it triggers — exactly the
        per-instruction reference semantics.  This is the generic path;
        the run loop inlines the common case (a memory access away from
        any transition boundary)."""
        event_index = self.retired
        # (may load the block, scheduling its first memory event)
        blk = self._block_at(event_index)
        hierarchy = self.hierarchy
        core = self.core
        stats = hierarchy.stats
        if event_index == self._mem_next:
            ptr = self._mem_ptr
            f = blk.mem_flags[ptr]
            pc, addr = blk.mem_pcs[ptr], blk.mem_addrs[ptr]
            if f & FLAG_LOAD:
                issue = core.begin((f & FLAG_DEP) != 0)
                result = hierarchy.load(pc, addr, issue, blk.mem_keys[ptr])
                core.finish(result.latency, True)
                stats.loads += 1
            else:
                issue = core.begin()
                latency = hierarchy.store(pc, addr, issue)
                core.finish(latency)
                stats.stores += 1
            self._advance_mem_ptr()
        else:
            f = int(blk.flags[event_index - blk.start])
            if f & FLAG_BRANCH:
                mispred = bool(f & FLAG_MISPRED)
                core.step(1.0, False, False, mispred)
                stats.branches += 1
                if mispred:
                    stats.mispredicted_branches += 1
            else:
                core.step()
        stats.instructions += 1
        self.retired += 1
        self._post_event(event_index)

    def _post_event(self, event_index: int) -> None:
        """Apply any warmup-end / epoch-boundary transition triggered by
        the instruction just executed at ``event_index``."""
        if event_index == self._warm_idx:
            self._warm_idx = _NEVER
            # End of this core's warm-up: caches and predictors stay warm,
            # measured statistics restart (paper §6.1 methodology).  Only
            # the private caches' hit counters reset — the shared LLC is
            # still mid-warmup for other cores.
            hierarchy = self.hierarchy
            stats = hierarchy.stats
            self.measure_start_cycles = self.core.cycles
            Simulator._reset_measured_stats(
                stats, hierarchy, include_shared_caches=False
            )
            self._epoch_snapshot = stats.snapshot()
            self._epoch_cycles = self.core.cycles
            self._epoch_busy = hierarchy.dram.busy_cycles
            self._epoch_kinds = hierarchy.dram.kind_counts()
        if event_index == self._next_epoch:
            self._next_epoch += self.epoch_length
            self._end_epoch()
        self._boundary = min(self._limit, self._next_epoch, self._warm_idx)

    def _end_epoch(self) -> None:
        hierarchy = self.hierarchy
        telemetry = build_epoch_telemetry(
            hierarchy.dram,
            self._epoch_index,
            hierarchy.stats,
            self._epoch_snapshot,
            self.core.cycles - self._epoch_cycles,
            hierarchy.dram.busy_cycles - self._epoch_busy,
            self._epoch_kinds,
        )
        action = self.policy.decide(telemetry)
        hierarchy.set_prefetchers_enabled(action.prefetchers_enabled)
        hierarchy.set_ocp_enabled(action.ocp_enabled)
        hierarchy.set_degree_fraction(action.degree_fraction)
        self._epoch_index += 1
        self._epoch_snapshot = hierarchy.stats.snapshot()
        self._epoch_cycles = self.core.cycles
        self._epoch_busy = hierarchy.dram.busy_cycles
        self._epoch_kinds = hierarchy.dram.kind_counts()


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
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self.params = params
        self.shared_llc = Cache(params.llc)
        self.shared_dram = MainMemory(params.dram)
        self.instructions_per_core = instructions_per_core
        warmup = int(instructions_per_core * warmup_fraction)
        self.contexts = [
            _CoreContext(
                core_id=core_id,
                trace=trace,
                hierarchy=hierarchy_factory(
                    params, self.shared_llc, self.shared_dram
                ),
                policy=policy_factory(),
                epoch_length=epoch_length,
                warmup_instructions=warmup,
                limit=instructions_per_core,
            )
            for core_id, trace in enumerate(traces)
        ]

    def run(self) -> MultiCoreResult:
        limit = self.instructions_per_core
        contexts = self.contexts
        heap = []
        for ctx in contexts:
            event = ctx.next_event()
            ctx.advance_private(0, event)
            if event < limit:
                # key = clock before the event instruction: identical to
                # the per-instruction heap's key when it pops this
                # instruction, so events order the same way.
                heap.append((ctx.core._last_commit, ctx.core_id))
        heapq.heapify(heap)
        heappush = heapq.heappush
        heappop = heapq.heappop
        # Per-core references the fast path needs, hoisted once per run.
        hot = [
            (ctx, ctx.core, ctx.core._commit_ring, ctx.core._rob,
             ctx.core._inv_width, ctx.hierarchy.load, ctx.hierarchy.store,
             ctx.hierarchy.stats)
            for ctx in contexts
        ]
        while heap:
            cid = heappop(heap)[1]
            # The heap is untouched while this core holds the minimum, so
            # the key to beat is read once per turn.
            if heap:
                top_clock, top_cid = heap[0]
            else:
                top_clock = _INF
            ctx, core, ring, rob, inv_width, hier_load, hier_store, stats = \
                hot[cid]
            while True:
                start = ctx.retired
                if start == ctx._mem_next and start < ctx._boundary:
                    # Fast path: a memory access away from any transition
                    # boundary, followed by its precomputed private gap.
                    blk = ctx._mem_blk
                    ptr = ctx._mem_ptr
                    f = blk.mem_flags[ptr]
                    # Inlined CoreModel.begin/finish around the access.
                    idx = core._index
                    pos = idx % rob
                    slot_time = ring[pos]
                    next_dispatch = core._next_dispatch
                    dispatch = next_dispatch
                    if slot_time > dispatch:
                        dispatch = slot_time
                    if f & FLAG_LOAD:
                        if f & FLAG_DEP:
                            load_ready = core._last_load_ready
                            if load_ready > dispatch:
                                dispatch = load_ready
                        result = hier_load(
                            blk.mem_pcs[ptr], blk.mem_addrs[ptr], dispatch,
                            blk.mem_keys[ptr])
                        ready = dispatch + result.latency
                        core._last_load_ready = ready
                        stats.loads += 1
                    else:
                        ready = dispatch + hier_store(
                            blk.mem_pcs[ptr], blk.mem_addrs[ptr], dispatch)
                        stats.stores += 1
                    last_commit = core._last_commit + inv_width
                    if ready > last_commit:
                        last_commit = ready
                    ring[pos] = last_commit
                    idx += 1
                    next_dispatch = next_dispatch + inv_width
                    r = start + 1
                    if ptr < blk.n_gaps:
                        # Inlined _advance_mem_ptr within the block.
                        ctx._mem_ptr = ptr + 1
                        ctx._mem_next = blk.mem[ptr + 1]
                        gap = blk.gap_len[ptr]
                        end = r + gap
                        if gap and blk.gap_clean[ptr] \
                                and end <= ctx._boundary:
                            # Inlined CoreModel.run_simple over the gap.
                            for _ in range(gap):
                                pos = idx % rob
                                slot_time = ring[pos]
                                dispatch = next_dispatch
                                if slot_time > dispatch:
                                    dispatch = slot_time
                                ready = dispatch + 1.0
                                commit = last_commit + inv_width
                                if ready > commit:
                                    commit = ready
                                ring[pos] = commit
                                idx += 1
                                last_commit = commit
                                next_dispatch = next_dispatch + inv_width
                            stats.branches += blk.gap_branches[ptr]
                            r = end
                            gap = 0
                    else:
                        # The block's last memory event: its gap crosses a
                        # block seam or the replay boundary.
                        ctx._advance_mem_ptr()
                        gap = -1
                    core._index = idx
                    core._last_commit = last_commit
                    core._next_dispatch = next_dispatch
                    stats.instructions += r - start
                    ctx.retired = r
                    if gap:
                        # the gap needs the generic private path
                        ctx.advance_private(r, ctx.next_event())
                else:
                    # Generic path: epoch/warmup transitions.
                    ctx.execute_event()
                    ctx.advance_private(ctx.retired, ctx.next_event())
                if ctx.retired >= limit:
                    break
                clock = core._last_commit
                if clock > top_clock or (clock == top_clock
                                         and cid > top_cid):
                    heappush(heap, (clock, cid))
                    break
                # this core still holds the minimum event key: continue
                # with it without touching the heap
        result = MultiCoreResult()
        for ctx in self.contexts:
            measured_cycles = ctx.core.cycles - ctx.measure_start_cycles
            ctx.hierarchy.stats.cycles = measured_cycles
            result.cores.append(
                CoreResult(
                    workload=ctx.trace.name,
                    instructions=ctx.retired - ctx.warmup_instructions,
                    cycles=measured_cycles,
                    stats=ctx.hierarchy.stats,
                )
            )
        return result
