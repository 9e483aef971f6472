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

Each core is a generator, :meth:`_CoreContext.events`: the timing loop
both simulators share, :func:`~repro.sim.simulator.segment_loop`, over
the core's trace (replayed from the start while the core is short of its
quota).  Only instructions that touch shared state or sample it need
global ordering: loads and stores (shared LLC and DRAM), and the
instructions whose retirement ends an epoch or the warmup (the
transitions read shared DRAM telemetry).  The loop yields the core's
clock before each of them and executes it when resumed; everything in
between — unit-latency rows and mispredicted branches — is private to
the core and runs without a yield.  :meth:`MultiCoreSimulator.run` keeps
a heap of ``(clock, core_id)`` and always resumes the smallest entry,
which is the key the per-instruction heap would pop that instruction
with, so shared-state mutations happen in the identical order and the
results are bit-identical (pinned by the multicore golden cases in
``tests/golden/`` and by the per-instruction reference in
``tests/test_multicore_oracle.py``, materialized and streamed at any
block size).

A core keeps only its stop schedule: the warmup end and an epoch every
``epoch_length`` instructions, both counted over every instruction it
retires, replays included.  The warmup reset, each epoch's telemetry and
each core's :class:`~repro.sim.region.SimulationResult` come from the
core's :class:`~repro.sim.region.MeasuredRegion`, the owner of the
measured region that the single-core simulator uses too.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

if TYPE_CHECKING:  # avoid a sim <-> policies import cycle
    from ..policies.base import CoordinationPolicy
from ..workloads.streaming import TraceBlock, TraceStream, trace_blocks
from ..workloads.trace import Trace
from .cache import Cache
from .cpu import CoreModel
from .dram import MainMemory
from .hierarchy import CacheHierarchy
from .params import SystemParams
from .region import MeasuredRegion, MultiCoreResult, SimulationResult
from .simulator import _NEVER, Simulator, segment_loop


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
        self.region = MeasuredRegion(hierarchy)
        if policy is not None:
            policy.attach(hierarchy)

    def events(self, epoch_length: int, warmup: int,
               limit: int) -> Iterator[float]:
        """Run this core's first ``limit`` instructions, replaying its
        trace as often as needed: :func:`~repro.sim.simulator.segment_loop`
        over the replayed blocks, yielding the core's clock before each
        instruction that must be globally ordered.

        Keeps the multi-core stop schedule: the ``warmup`` end and one
        epoch every ``epoch_length`` instructions, both counted over
        every instruction the core retires (replays included).
        """
        hierarchy = self.hierarchy
        policy = self.policy
        region = self.region
        count = 0  # instructions retired, replays included
        # the counts whose instruction ends the next epoch / the warmup
        next_epoch = epoch_length if policy is not None else _NEVER
        warm_end = warmup or _NEVER

        def cross(retired: int, clock: float) -> int:
            nonlocal count, next_epoch, warm_end
            count += retired
            if count == warm_end:
                # End of this core's warmup (paper §6.1).
                warm_end = _NEVER
                region.end_warmup(clock)
            if count == next_epoch:
                next_epoch += epoch_length
                Simulator._apply_action(hierarchy, policy.decide(
                    region.end_epoch(clock)))
            return (next_epoch if next_epoch < warm_end else warm_end) \
                - count

        return segment_loop(self.core, hierarchy,
                            _replayed(self.trace, limit), cross)


def _replayed(trace: Union[Trace, TraceStream],
              limit: int) -> Iterator[TraceBlock]:
    """The blocks of ``trace`` replayed back to back up to ``limit``
    rows in all; the last block is cut to end there."""
    while True:  # one pass over the trace per replay
        for block in trace_blocks(trace):
            if len(block) >= limit:
                yield TraceBlock(block.index, block.start, block.pcs[:limit],
                                 block.addrs[:limit], block.flags[:limit])
                return
            limit -= len(block)
            yield block


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
        if epoch_length <= 0:
            raise ValueError("epoch_length must be positive")
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
