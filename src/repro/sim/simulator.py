"""Single-core trace-driven simulator with epoch-granularity coordination.

Drives one trace — a materialized :class:`~repro.workloads.trace.Trace`
or a :class:`~repro.workloads.streaming.TraceStream` — through a
:class:`~repro.sim.hierarchy.CacheHierarchy` using the analytical core
timing model.  Every ``epoch_length`` retired instructions the simulator
snapshots the epoch's telemetry (paper Table 1 features + Table 2 reward
metrics) and asks the coordination policy for the next epoch's action —
this is Athena's agent-environment loop (paper Figure 5).

Both simulators time instructions in one loop, :func:`segment_loop`,
which consumes a trace block by block: a materialized trace is read in
blocks of :data:`~repro.workloads.streaming.TRACE_BLOCK_ROWS` rows, a
stream's blocks arrive lazily.  Each block converts only its slow rows
— loads, stores and mispredicted branches — to Python scalars, hashes
their OCP keys (:meth:`~repro.sim.hierarchy.CacheHierarchy.block_keys`)
and keeps a prefix sum of its branches (:func:`_slow_rows`).  The loop
walks segments that end at the nearest of the block end and the
driver's next transition, so transitions fire only at a segment's end,
at exactly the instruction positions of a one-instruction-at-a-time
loop.  Inside a segment each iteration runs one slow row with
``CoreModel.begin``/``finish`` and the hierarchy access inlined, after
the unit-latency rows before it as an inlined ``CoreModel.run_simple``;
the floating-point operation sequence is the core model's, so timing is
bit-identical to stepping it row by row (pinned by
``tests/test_simulator_oracle.py``, ``tests/test_multicore_oracle.py``
and the golden cases).  The loop yields the core's clock before every
load, store and transition instruction, which the multi-core simulator
orders its cores by; a single-core run drops the clocks.

Each driver keeps only its own stop schedule and transitions.  Here
(:meth:`Simulator._loop`) they are the warmup end, after which the
epoch count restarts, each epoch's policy decision and the checkpoint
position; the warmup reset, each epoch's telemetry and the run's result
come from the run's :class:`~repro.sim.region.MeasuredRegion`, the one
owner of the measured region that the multi-core simulator uses too.

One run can carry several coordination policies, its *riders*, in
lockstep.  Every rider decides on the same epoch telemetry; while they
all choose the same action the run continues as one.  At the first epoch
where they disagree, the riders are grouped by action: the first group
continues this run, and every other group gets a fork — a deep copy of
the run, captured by the same code as a checkpoint, with the other
riders dropped and the group's own action applied — that resumes once
this run ends.  A fork may fork again.  Riders must touch the hierarchy
only through their actions; Athena's riders share the hierarchy's one
feature tracker, a pure function of the hierarchy's events, which a
fork copies with the hierarchy.  Then each rider's result is
bit-identical to running it alone, and a run with one policy is simply
a group of one.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Union)

import numpy as np

if TYPE_CHECKING:  # imported lazily to avoid a sim <-> policies cycle
    from ..policies.base import CoordinationAction, CoordinationPolicy

from ..workloads.streaming import TraceBlock, TraceStream, trace_blocks
from ..workloads.trace import (
    FLAG_BRANCH,
    FLAG_DEP,
    FLAG_LOAD,
    FLAG_MISPRED,
    FLAG_STORE,
    Trace,
)
from .cpu import CoreModel
from .hierarchy import CacheHierarchy
from .region import MeasuredRegion, SimulationResult
from .stats import EpochTelemetry

_MEM = FLAG_LOAD | FLAG_STORE
_MISPRED_BRANCH = FLAG_MISPRED | FLAG_BRANCH
_BRANCH_OR_MEM = FLAG_BRANCH | _MEM
#: a count no run ever reaches (schedules nothing)
_NEVER = 1 << 62


@dataclass
class SimCheckpoint:
    """A re-enterable snapshot of a run at one trace position.

    Captured by ``Simulator.run(checkpoint_at=...)`` after the
    instruction at ``position - 1`` retired (and any warmup/epoch
    transition at that point fired), on a materialized or a streamed
    trace alike; :meth:`Simulator.resume` re-enters the run from here, so
    a long trace's measured region is reachable without replaying the
    prefix *simulation* (a stream re-emits and skips the prefix rows, or
    seeks when it re-blocks a cached whole trace).
    ``state`` is one deep-copied object graph — hierarchy, core, riders
    and loop counters together — so every shared reference inside it
    (``stats`` *is* ``hierarchy.stats``; a rider's policy holds the
    hierarchy, whose feature tracker the riders share) survives intact.
    A lockstep fork is a checkpoint too, holding only the riders that
    took the fork's action.
    """

    position: int
    epoch_length: int
    warmup_fraction: float
    state: dict


def _slow_rows(block: TraceBlock, block_keys) -> tuple:
    """The rows of ``block`` a run loop executes one at a time: memory
    accesses and mispredicted branches.  Every other row is a
    unit-latency step (a mispredict flag without a branch flag redirects
    nothing).

    Returns ``(positions, flags, pcs, addrs, keys, branch_prefix)``: the
    block-local positions of those rows followed by the sentinel
    ``len(block)``; their flags, pcs and addrs as Python scalars; their
    OCP keys from ``block_keys``; and ``branch_prefix[i]``, the
    non-memory branches among the block's first ``i`` rows.
    """
    flags = block.flags
    rows = np.flatnonzero(
        ((flags & _MEM) != 0)
        | ((flags & _MISPRED_BRANCH) == _MISPRED_BRANCH)
    )
    pcs = block.pcs[rows]
    addrs = block.addrs[rows]
    branch_prefix = np.concatenate((
        np.zeros(1, dtype=np.int64),
        np.cumsum((flags & _BRANCH_OR_MEM) == FLAG_BRANCH, dtype=np.int64),
    ))
    positions = rows.tolist()
    positions.append(len(flags))
    return (positions, flags[rows].tolist(), pcs.tolist(), addrs.tolist(),
            block_keys(pcs, addrs), branch_prefix.tolist())


def segment_loop(
    core: CoreModel,
    hierarchy: CacheHierarchy,
    blocks: Iterable[TraceBlock],
    cross: Callable[[int, float], int],
) -> Iterator[float]:
    """Run ``blocks`` on ``core`` and ``hierarchy``: the timing loop of
    both simulators.

    Each block is walked in segments that end at the nearest of the
    block end and the driver's next transition.  After every segment
    (and once before the first) the core's timing state is written back
    and ``cross(retired, clock)`` is called with the segment's
    instruction count and the core's clock: it fires the driver's
    transitions due there (warmup end, epoch, checkpoint) and returns
    how many instructions remain to its next transition, at least 1.

    Yields the core's clock before each instruction that other cores
    must be ordered against, and executes that instruction when
    resumed: loads and stores (they reach the LLC and DRAM) and the
    instruction whose retirement reaches a transition (the transition
    reads the DRAM's telemetry; a load or store there is yielded twice
    at one clock, which a clock-ordered scheduler resumes back to back).
    The rows in between run without a yield: unit-latency rows as an
    inlined ``CoreModel.run_simple``, mispredicted branches with
    ``CoreModel.begin``/``finish`` inlined.
    The floating-point operation sequence is the core model's, so timing
    is bit-identical to stepping it row by row.
    """
    stats = hierarchy.stats
    hier_load = hierarchy.load
    hier_store = hierarchy.store
    block_keys = hierarchy.block_keys
    ring = core._commit_ring
    rob = core._rob
    inv_width = core._inv_width
    penalty = core._penalty
    # The core's mutable timing state lives in locals; it is written back
    # before every ``cross``.
    idx = core._index
    next_dispatch = core._next_dispatch
    last_commit = core._last_commit
    last_load_ready = core._last_load_ready

    togo = cross(0, last_commit)
    for block in blocks:
        bn = len(block)
        slow, slow_flags, slow_pcs, slow_addrs, slow_keys, \
            branch_prefix = _slow_rows(block, block_keys)
        sp = 0
        il = 0
        while il < bn:
            # One segment, up to the nearest of the block end and the next
            # transition.  ``edge`` is the position of the segment's
            # transition instruction, ``stop`` when it has none.
            stop = il + togo
            if stop <= bn:
                edge = stop - 1
            else:
                stop = edge = bn
            start = il
            loads = stores = mispredicts = 0
            while True:
                # Inlined CoreModel.run_simple over the unit-latency rows
                # up to the next slow row or the edge.
                nxt = slow[sp]
                for _ in range((nxt if nxt < edge else edge) - il):
                    pos = idx % rob
                    slot = ring[pos]
                    dispatch = next_dispatch if next_dispatch >= slot \
                        else slot
                    ready = dispatch + 1.0
                    commit = last_commit + inv_width
                    if ready > commit:
                        commit = ready
                    ring[pos] = commit
                    idx += 1
                    last_commit = commit
                    next_dispatch += inv_width
                if nxt >= edge:
                    if edge == stop:
                        break
                    # The transition instruction is next; it runs as
                    # the slow or unit-latency row it is.
                    yield last_commit
                    il = edge
                    edge = stop
                    continue
                # Inlined CoreModel.begin/finish around the slow row.
                f = slow_flags[sp]
                pos = idx % rob
                slot = ring[pos]
                dispatch = next_dispatch if next_dispatch >= slot else slot
                if f & FLAG_LOAD:
                    if f & FLAG_DEP and last_load_ready > dispatch:
                        dispatch = last_load_ready
                    yield last_commit
                    ready = last_load_ready = dispatch + hier_load(
                        slow_pcs[sp], slow_addrs[sp], dispatch,
                        slow_keys[sp])
                    loads += 1
                elif f & FLAG_STORE:
                    yield last_commit
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
                if not f & _MEM:
                    # The front end refills only after the mispredicted
                    # branch resolves.
                    ready += penalty
                    if ready > next_dispatch:
                        next_dispatch = ready
                    mispredicts += 1
                sp += 1
                il = nxt + 1
            il = stop
            stats.instructions += stop - start
            stats.branches += branch_prefix[stop] - branch_prefix[start]
            stats.loads += loads
            stats.stores += stores
            stats.mispredicted_branches += mispredicts
            core._index = idx
            core._next_dispatch = next_dispatch
            core._last_commit = last_commit
            core._last_load_ready = last_load_ready
            togo = cross(stop - start, last_commit)


@dataclass(eq=False)
class Rider:
    """One coordination policy riding a run, with its index among the
    run's policies."""

    member: int
    policy: "CoordinationPolicy"


class Simulator:
    """Runs one workload on one core, for one or more riders."""

    def __init__(
        self,
        trace: Union[Trace, TraceStream],
        hierarchy: CacheHierarchy,
        policy: Optional["CoordinationPolicy"] = None,
        epoch_length: int = 250,
        warmup_fraction: float = 0.2,
        *,
        riders: Sequence["CoordinationPolicy"] = (),
    ) -> None:
        if epoch_length <= 0:
            raise ValueError("epoch_length must be positive")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if policy is not None and riders:
            raise ValueError("pass one policy or riders, not both")
        self.trace = trace
        self.hierarchy = hierarchy
        self.epoch_length = epoch_length
        self.warmup_fraction = warmup_fraction
        self.core = CoreModel(hierarchy.params.core)
        #: set by ``run`` when it reaches ``checkpoint_at``
        self.checkpoint: Optional[SimCheckpoint] = None
        #: set by ``run``: one result per rider
        self.results: List[SimulationResult] = []
        self.riders = [Rider(member, rider) for member, rider in
                       enumerate(riders if policy is None else (policy,))]
        for rider in self.riders:
            rider.policy.attach(hierarchy)

    def run(self, checkpoint_at: Optional[int] = None) -> SimulationResult:
        """Simulate the whole trace for every rider, forking where they
        disagree; returns the first rider's result.

        ``self.results`` then holds one result per rider, in rider order
        (one result for a run without a policy); riders that never
        parted share one result object.  With ``checkpoint_at``, also
        capture a :class:`SimCheckpoint` into ``self.checkpoint`` once
        the instruction at ``checkpoint_at - 1`` has retired.
        """
        if checkpoint_at is not None and \
                not 0 < checkpoint_at <= len(self.trace):
            raise ValueError("checkpoint_at must be in (0, len(trace)]")
        count = self.hierarchy.stats.instructions
        state = {
            "next_epoch": count - count % self.epoch_length
            + self.epoch_length,
            "epochs": [],
            "actions": [],
            "warmup_stats_reset_done":
                int(len(self.trace) * self.warmup_fraction) == 0,
            "region": MeasuredRegion(self.hierarchy),
        }
        results = self._loop(0, state, checkpoint_at)
        self.results = [results[member] for member in sorted(results)]
        return self.results[0]

    @classmethod
    def resume(
        cls, trace: Union[Trace, TraceStream], checkpoint: SimCheckpoint
    ) -> SimulationResult:
        """Finish a run from a :class:`SimCheckpoint`; the result of its
        first rider.

        ``trace`` is the checkpointed run's trace, materialized or
        streamed.  The checkpoint's state graph is deep-copied again, so
        the same checkpoint can be resumed repeatedly (each resume gets
        private mutable state).  A stream only needs to cover positions
        from ``checkpoint.position`` on: a cold stream re-emits and skips
        the prefix rows; one re-blocking a cached whole trace seeks to it.
        """
        results = cls._enter(trace, checkpoint,
                             copy.deepcopy(checkpoint.state))
        return results[min(results)]

    @classmethod
    def _enter(
        cls, trace: Union[Trace, TraceStream], checkpoint: SimCheckpoint,
        state: dict,
    ) -> Dict[int, SimulationResult]:
        """Run a checkpoint's private ``state`` to the end of ``trace``;
        results by rider index."""
        sim = cls.__new__(cls)
        sim.trace = trace
        sim.hierarchy = state.pop("hierarchy")
        sim.riders = state.pop("riders")
        sim.core = state.pop("core")
        sim.epoch_length = checkpoint.epoch_length
        sim.warmup_fraction = checkpoint.warmup_fraction
        sim.checkpoint = None
        return sim._loop(checkpoint.position, state, None)

    def _capture(self, position: int, st: dict,
                 riders: List[Rider]) -> SimCheckpoint:
        """Deep-copy the run at ``position`` (loop state ``st``, the core
        already synced) for ``riders`` only."""
        return SimCheckpoint(
            position=position, epoch_length=self.epoch_length,
            warmup_fraction=self.warmup_fraction,
            state=copy.deepcopy(dict(st, hierarchy=self.hierarchy,
                                     core=self.core, riders=riders)))

    def _loop(
        self,
        position: int,
        st: dict,
        checkpoint_at: Optional[int],
    ) -> Dict[int, SimulationResult]:
        """Run the trace from global ``position`` to its end, starting
        from the loop state ``st``, then resume every fork taken on the
        way; results by rider index.

        The timing is :func:`segment_loop`'s; this loop keeps the
        single-core stop schedule: the warmup end, after which the epoch
        count restarts, each epoch (with rider grouping and forks) and
        ``checkpoint_at``.
        """
        trace = self.trace
        hierarchy = self.hierarchy
        stats = hierarchy.stats
        riders = self.riders
        forks: List[SimCheckpoint] = []
        epoch_len = self.epoch_length
        warmup_end = int(len(trace) * self.warmup_fraction)

        epochs: List[EpochTelemetry] = st["epochs"]
        actions: List["CoordinationAction"] = st["actions"]
        warmup_stats_reset_done = st["warmup_stats_reset_done"]
        region: MeasuredRegion = st["region"]
        next_epoch = st["next_epoch"]
        have_policy = bool(riders)
        captured = checkpoint_at is None

        def cross(retired: int, clock: float) -> int:
            nonlocal position, riders, warmup_stats_reset_done, \
                next_epoch, captured
            position += retired
            count = stats.instructions
            if not warmup_stats_reset_done and count >= warmup_end:
                # End of warm-up: caches and predictors stay warm, but
                # the reported statistics start here (paper §6.1
                # methodology).
                region.end_warmup(clock)
                warmup_stats_reset_done = True
                count = 0
                next_epoch = 0  # 0 % epoch_len == 0 fires below

            parted = ()
            if have_policy and count == next_epoch:
                telemetry = region.end_epoch(clock)
                # Every rider decides on the same telemetry; riders are
                # grouped by action, in rider order.
                decided: Dict["CoordinationAction", List[Rider]] = {}
                for rider in riders:
                    decided.setdefault(rider.policy.decide(telemetry),
                                       []).append(rider)
                (action, riders), *parted = decided.items()
                self._apply_action(hierarchy, action)
                epochs.append(telemetry)
                actions.append(action)
                next_epoch += epoch_len

            at_checkpoint = not captured and position == checkpoint_at
            if parted or at_checkpoint:
                # The epochs, the actions and the region are ``st``'s
                # own objects, updated in place.
                loop_state = dict(
                    st, next_epoch=next_epoch,
                    warmup_stats_reset_done=warmup_stats_reset_done)
                # A fork is this run with the other group's riders,
                # whose action replaces this run's last one.
                for fork_action, fork_riders in parted:
                    fork = self._capture(position, loop_state, fork_riders)
                    self._apply_action(fork.state["hierarchy"], fork_action)
                    fork.state["actions"][-1] = fork_action
                    forks.append(fork)
                if at_checkpoint:
                    captured = True
                    self.checkpoint = self._capture(
                        checkpoint_at, loop_state, riders)

            togo = next_epoch - count if have_policy else _NEVER
            if not warmup_stats_reset_done and warmup_end - count < togo:
                togo = warmup_end - count
            if not captured and checkpoint_at - position < togo:
                togo = checkpoint_at - position
            return togo

        # One run has no other core to interleave with: the clocks the
        # loop yields are dropped.
        deque(segment_loop(self.core, hierarchy,
                           trace_blocks(trace, position), cross), maxlen=0)
        result = region.result(trace.name, self.core.cycles, epochs, actions)
        results = {rider.member: result for rider in riders} or {0: result}
        for fork in forks:
            results.update(self._enter(trace, fork, fork.state))
        return results

    # ------------------------------------------------------------------ helpers

    @staticmethod
    def _apply_action(hierarchy: CacheHierarchy,
                      action: "CoordinationAction") -> None:
        hierarchy.set_prefetchers_enabled(action.prefetchers_enabled)
        hierarchy.set_ocp_enabled(action.ocp_enabled)
        hierarchy.set_degree_fraction(action.degree_fraction)
