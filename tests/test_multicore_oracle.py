"""Multi-core event loop against a per-instruction reference scheduler,
plus the per-core accounting laws every multi-core run must satisfy.

The reference below is the semantics ``repro.sim.multicore`` documents:
at every step the core with the smallest ``(clock, core_id)`` executes
exactly one instruction through ``CoreModel.begin``/``finish``/``step``
and ``CacheHierarchy.load``/``store``; warmup resets and epoch decisions
fire after the same instruction indices.  The event loop batches private
instructions and inlines the memory path, so it must reproduce this
schedule bit for bit — materialized and streamed at any block size.
"""

import heapq
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.experiments.configs import CacheDesign, build_hierarchy, system_for
from repro.policies import make_policy
from repro.policies.base import NaivePolicy
from repro.sim.cache import Cache
from repro.sim.cpu import CoreModel
from repro.sim.dram import MainMemory
from repro.sim.multicore import MultiCoreSimulator
from repro.sim.region import build_epoch_telemetry, reset_measured_stats
from repro.workloads.generators import WORKLOAD_PLANS
from repro.workloads.streaming import TraceStream, blocks_from_trace
from repro.workloads.suites import WorkloadSpec, build_trace, find_workload
from repro.workloads.trace import (
    FLAG_BRANCH,
    FLAG_DEP,
    FLAG_LOAD,
    FLAG_MISPRED,
    FLAG_STORE,
    Trace,
)

FAMILIES = sorted(WORKLOAD_PLANS)
POLICIES = ("none", "naive", "hpac", "mab", "athena", "tlp")
STREAM_BLOCKS = (1, 7, 997)


def _hierarchy_factory(design):
    return lambda p, llc, dram: build_hierarchy(
        design, params=p, llc=llc, dram=dram
    )


def reference_run(traces, design, policy_name, per_core, epoch, warmup):
    """Seed semantics: one instruction per heap step.  Returns per-core
    ``(instructions, cycles, stats)`` and the shared DRAM kind counts."""
    params = system_for(design)
    llc, dram = Cache(params.llc), MainMemory(params.dram)
    warm = int(per_core * warmup)
    cores = []
    for trace in traces:
        h = build_hierarchy(design, params=params, llc=llc, dram=dram)
        policy = make_policy(policy_name)
        if policy is not None:
            policy.attach(h)
        cores.append({
            "h": h, "core": CoreModel(params.core), "policy": policy,
            "rows": list(zip(trace.pcs.tolist(), trace.addrs.tolist(),
                             trace.flags.tolist())),
            "retired": 0, "start": 0.0, "epoch_index": 0,
            "mark": (h.stats.snapshot(), 0.0, dram.busy_cycles,
                     dram.kind_counts()),
        })
    heap = [(0.0, cid) for cid in range(len(cores))]
    while heap:
        _, cid = heapq.heappop(heap)
        c = cores[cid]
        h, core, stats = c["h"], c["core"], c["h"].stats
        idx = c["retired"]
        pc, addr, f = c["rows"][idx % len(c["rows"])]
        if f & FLAG_LOAD:
            issue = core.begin((f & FLAG_DEP) != 0)
            core.finish(h.load(pc, addr, issue), True)
            stats.loads += 1
        elif f & FLAG_STORE:
            core.finish(h.store(pc, addr, core.begin()))
            stats.stores += 1
        elif f & FLAG_BRANCH:
            mispred = bool(f & FLAG_MISPRED)
            core.step(1.0, False, False, mispred)
            stats.branches += 1
            stats.mispredicted_branches += mispred
        else:
            core.step()
        stats.instructions += 1
        c["retired"] = idx + 1
        if warm and idx == warm - 1:
            c["start"] = core.cycles
            reset_measured_stats(h)
            c["mark"] = (stats.snapshot(), core.cycles, dram.busy_cycles,
                         dram.kind_counts())
        if c["policy"] is not None and (idx + 1) % epoch == 0:
            snap, cycles, busy, kinds = c["mark"]
            telemetry = build_epoch_telemetry(
                dram, c["epoch_index"], stats, snap, core.cycles - cycles,
                dram.busy_cycles - busy, kinds)
            if h.tracker is not None:
                h.tracker.close_epoch(telemetry)
            action = c["policy"].decide(telemetry)
            h.set_prefetchers_enabled(action.prefetchers_enabled)
            h.set_ocp_enabled(action.ocp_enabled)
            h.set_degree_fraction(action.degree_fraction)
            c["epoch_index"] += 1
            c["mark"] = (stats.snapshot(), core.cycles, dram.busy_cycles,
                         dram.kind_counts())
        if c["retired"] < per_core:
            heapq.heappush(heap, (core.cycles, cid))
    out = []
    for c in cores:
        stats = c["h"].stats
        stats.cycles = c["core"].cycles - c["start"]
        out.append((c["retired"] - warm, stats.cycles, asdict(stats)))
    return out, dram.kind_counts()


def event_loop_run(traces, design, policy_name, per_core, epoch, warmup,
                   block=None):
    if block is not None:
        traces = [
            TraceStream(t.name, t.suite, len(t), block,
                        lambda t=t: blocks_from_trace(t, block))
            for t in traces
        ]
    sim = MultiCoreSimulator(
        traces=traces,
        params=system_for(design),
        hierarchy_factory=_hierarchy_factory(design),
        policy_factory=lambda: make_policy(policy_name),
        instructions_per_core=per_core,
        epoch_length=epoch,
        warmup_fraction=warmup,
    )
    result = sim.run()
    cores = [(c.instructions, c.cycles, asdict(c.stats))
             for c in result.cores]
    return cores, sim.shared_dram.kind_counts()


def _with_stray_mispredicts(trace, rate, seed):
    """``trace`` with a ``rate`` share of its non-memory rows replaced by
    rows that carry ``FLAG_MISPRED`` but no ``FLAG_BRANCH``.  No emitter
    produces them; by the flag contract they are not branches, so both
    the reference and the event loop must step them as plain rows."""
    rows = np.random.default_rng(seed).random(len(trace)) < rate
    rows &= (trace.flags & (FLAG_LOAD | FLAG_STORE)) == 0
    flags = trace.flags.copy()
    flags[rows] = FLAG_MISPRED
    return Trace(trace.name, trace.suite, trace.pcs, trace.addrs, flags)


def _core_trace(cid, family, seed, length, stray_rate, stray_seed):
    return _with_stray_mispredicts(
        WorkloadSpec(f"c{cid}", "oracle", family, seed).build(length),
        stray_rate, stray_seed)


@st.composite
def scenarios(draw):
    length = draw(st.integers(min_value=500, max_value=3_000))
    n_cores = draw(st.integers(min_value=1, max_value=4))
    traces = [
        _core_trace(cid, draw(st.sampled_from(FAMILIES)),
                    draw(st.integers(0, 10_000)), length,
                    draw(st.sampled_from((0.0, 0.005, 0.05))),
                    draw(st.integers(0, 2**32 - 1)))
        for cid in range(n_cores)
    ]
    if draw(st.booleans()):
        # identical cores tie on the clock: the core_id tie-break decides
        traces = [traces[0]] * n_cores
    return {
        "traces": traces,
        "design": draw(st.sampled_from(
            (CacheDesign.cd1(), CacheDesign.cd2()))),
        "policy_name": draw(st.sampled_from(POLICIES)),
        "per_core": draw(st.sampled_from(
            (length, 2 * length, length + 333))),
        "epoch": draw(st.sampled_from((97, 150, 400))),
        "warmup": draw(st.sampled_from((0.0, 0.2, 0.35))),
    }


def _edge_case(families, length, stray_rate, **knobs):
    return dict(knobs, traces=[
        _core_trace(cid, family, cid, length, stray_rate, cid)
        for cid, family in enumerate(families)
    ])


#: Scenarios every run checks, whatever hypothesis draws.
EDGE_CASES = (
    # Epoch 1: every instruction ends an epoch, so transitions land on
    # loads, stores, mispredicted branches, block seams and the replay
    # seam.
    _edge_case(("gups", "producer_consumer", "compute"), 600, 0.05,
               design=CacheDesign.cd1(), policy_name="mab",
               per_core=600 + 333, epoch=1, warmup=0.2),
    # A quota that ends partway through the first replay.
    _edge_case(("stencil", "streaming", "pointer_chase"), 1_500, 0.0,
               design=CacheDesign.cd2(), policy_name="hpac",
               per_core=1_500 + 333, epoch=97, warmup=0.35),
    # Four Athena agents sharing the LLC and DRAM.
    _edge_case(("graph", "gups", "phase_shift", "hash_probe"), 2_000, 0.005,
               design=CacheDesign.cd1(), policy_name="athena",
               per_core=4_000, epoch=150, warmup=0.2),
)


class TestReferenceScheduler:
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(scenario=scenarios())
    @example(scenario=EDGE_CASES[0])
    @example(scenario=EDGE_CASES[1])
    @example(scenario=EDGE_CASES[2])
    def test_event_loop_matches_per_instruction_heap(self, scenario):
        want = reference_run(**scenario)
        assert event_loop_run(**scenario) == want
        for block in STREAM_BLOCKS:
            assert event_loop_run(**scenario, block=block) == want, \
                f"streamed at block size {block}"


# ---------------------------------------------------------------------------
# accounting laws
# ---------------------------------------------------------------------------

MIX = ("spec06.libquantum_like.0", "ligra.BFS.0",
       "spec06.mcf_like.0", "parsec.streamcluster_like.1")
LENGTH = 4_000


def _mix_run(policy_factory, warmup):
    design = CacheDesign.cd1()
    sim = MultiCoreSimulator(
        traces=[build_trace(find_workload(w), LENGTH) for w in MIX],
        params=system_for(design),
        hierarchy_factory=_hierarchy_factory(design),
        policy_factory=policy_factory,
        instructions_per_core=LENGTH,
        epoch_length=250,
        warmup_fraction=warmup,
    )
    return sim, sim.run()


POLICY_MAKERS = {
    "none": lambda: None,
    "naive": NaivePolicy,
    "athena": lambda: make_policy("athena"),
}


@pytest.mark.parametrize("warmup", (0.0, 0.25))
@pytest.mark.parametrize("policy", sorted(POLICY_MAKERS))
class TestAccountingLaws:
    def test_per_core_counters_balance(self, policy, warmup):
        _, result = _mix_run(POLICY_MAKERS[policy], warmup)
        for core in result.cores:
            stats = core.stats
            assert core.instructions == LENGTH - int(LENGTH * warmup)
            assert stats.instructions == core.instructions
            assert stats.l1d_hits + stats.l1d_misses == stats.loads
            assert stats.l2c_hits + stats.l2c_misses == stats.l1d_misses


@pytest.mark.parametrize("policy", sorted(POLICY_MAKERS))
def test_per_core_dram_kinds_sum_to_the_shared_channel(policy):
    # Only without warmup: cores reset their counters at different times.
    sim, result = _mix_run(POLICY_MAKERS[policy], 0.0)
    per_core = [
        sum(getattr(c.stats, f"dram_{kind}_requests") for c in result.cores)
        for kind in ("demand", "prefetch", "ocp", "writeback")
    ]
    assert tuple(per_core) == sim.shared_dram.kind_counts()
