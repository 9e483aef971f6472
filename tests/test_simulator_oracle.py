"""Single-core run loop against a per-instruction reference, plus the
accounting laws every single-core run must satisfy.

The reference below is the semantics ``repro.sim.simulator`` documents:
every row steps once through ``CoreModel.begin``/``finish``/``step`` and
``CacheHierarchy.load``/``store``; the warmup reset and the epoch
decisions fire after the same instruction indices.  The run loop walks
segments between transitions and inlines the core model, so it must
reproduce this bit for bit — on a materialized trace, streamed at any
block size, and resumed from a checkpoint.
"""

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import golden_cases
from repro.engine.jobs import encode_result
from repro.experiments.configs import CacheDesign, build_hierarchy
from repro.policies import make_policy
from repro.sim.cpu import CoreModel
from repro.sim.params import CoreParams
from repro.sim.region import (
    SimulationResult,
    build_epoch_telemetry,
    reset_measured_stats,
)
from repro.sim.simulator import Simulator
from repro.workloads.streaming import TraceStream, blocks_from_trace
from repro.workloads.trace import (
    FLAG_BRANCH,
    FLAG_DEP,
    FLAG_LOAD,
    FLAG_MISPRED,
    FLAG_STORE,
    TraceBuilder,
)

POLICIES = ("none", "naive", "athena", "tlp")
#: block sizes a run is streamed at; ``None`` is the materialized trace
BLOCKS = (1, 7, 997, None)
#: the row kinds a drawn trace mixes, as flag words
ROW_KINDS = (
    0,                                # nop
    FLAG_BRANCH,                      # predicted branch
    FLAG_BRANCH | FLAG_MISPRED,       # mispredicted branch
    FLAG_MISPRED,                     # mispredict flag without a branch
    FLAG_LOAD,                        # independent load
    FLAG_LOAD | FLAG_DEP,             # dependent load
    FLAG_STORE,                       # store
    FLAG_LOAD | FLAG_BRANCH,          # load carrying a branch flag
)


def _mark(stats, cycles, dram):
    return stats.snapshot(), cycles, dram.busy_cycles, dram.kind_counts()


def reference_run(trace, design, policy_name, epoch, warmup):
    """Seed semantics: one row at a time.  Returns the result and the
    core."""
    h = build_hierarchy(design)
    policy = make_policy(policy_name)
    if policy is not None:
        policy.attach(h)
    core = CoreModel(h.params.core)
    stats, dram = h.stats, h.dram
    warm = int(len(trace) * warmup)
    start = 0.0
    epochs, actions = [], []
    mark = _mark(stats, 0.0, dram)
    rows = zip(trace.pcs.tolist(), trace.addrs.tolist(), trace.flags.tolist())
    for i, (pc, addr, f) in enumerate(rows):
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
        if i == warm - 1:
            start = core.cycles
            reset_measured_stats(h)
            mark = _mark(stats, core.cycles, dram)
        if policy is not None and stats.instructions % epoch == 0:
            snap, cycles, busy, kinds = mark
            telemetry = build_epoch_telemetry(
                dram, len(epochs), stats, snap, core.cycles - cycles,
                dram.busy_cycles - busy, kinds)
            if h.tracker is not None:
                h.tracker.close_epoch(telemetry)
            action = policy.decide(telemetry)
            h.set_prefetchers_enabled(action.prefetchers_enabled)
            h.set_ocp_enabled(action.ocp_enabled)
            h.set_degree_fraction(action.degree_fraction)
            epochs.append(telemetry)
            actions.append(action)
            mark = _mark(stats, core.cycles, dram)
    stats.cycles = core.cycles - start
    result = SimulationResult(trace.name, stats, stats.instructions,
                              stats.cycles, epochs, actions)
    return result, core


def _source(trace, block):
    if block is None:
        return trace
    return TraceStream(trace.name, trace.suite, len(trace), block,
                       lambda: blocks_from_trace(trace, block))


def _core_state(core):
    return (core._index, core._next_dispatch, core._last_commit,
            core._last_load_ready, list(core._commit_ring))


def _payload(result):
    return json.loads(json.dumps(encode_result(result)))


def assert_accounting_laws(stats: dict, instructions: int, cycles: float):
    assert stats["l1d_hits"] + stats["l1d_misses"] == stats["loads"]
    assert stats["l2c_hits"] + stats["l2c_misses"] == stats["l1d_misses"]
    assert stats["llc_hits"] + stats["llc_misses"] == stats["l2c_misses"]
    assert stats["ocp_correct"] <= stats["ocp_predictions"]
    if cycles:
        # commit is width-limited; the tolerance absorbs the rounding of
        # the summed 1/width commit steps
        assert instructions / cycles <= CoreParams().width * (1 + 1e-9)


@st.composite
def traces(draw):
    length = draw(st.integers(min_value=1, max_value=1_200))
    weights = draw(st.lists(st.integers(0, 4), min_size=len(ROW_KINDS),
                            max_size=len(ROW_KINDS)))
    if not any(weights):
        weights[0] = 1
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    stride_line = 0
    builder = TraceBuilder("oracle", "test")
    for f in rng.choices(ROW_KINDS, weights=weights, k=length):
        pc = 0x400000 + 4 * rng.randrange(64)
        addr = 0
        if f & (FLAG_LOAD | FLAG_STORE):
            pattern = rng.randrange(3)
            if pattern == 0:  # a stride the prefetchers can learn
                stride_line += 1
                addr = (1 << 20) + 64 * stride_line
            elif pattern == 1:  # a small hot set: cache hits
                addr = (2 << 20) + 64 * rng.randrange(32)
            else:  # a large region: misses to DRAM
                addr = (64 << 20) + 64 * rng.randrange(1 << 16)
        builder.add(pc, addr, f)
    return builder.build()


@st.composite
def scenarios(draw):
    trace = draw(traces())
    n = len(trace)
    mem_rows = [i for i, f in enumerate(trace.flags.tolist())
                if f & (FLAG_LOAD | FLAG_STORE)]
    # Positions worth stopping at: right after a memory row, on a block
    # seam of the small block sizes, and anywhere.
    candidates = [draw(st.integers(1, n)), min(n, 997),
                  min(n, 7 * draw(st.integers(1, 9)))]
    if mem_rows:
        candidates.append(draw(st.sampled_from(mem_rows)) + 1)
    warm = draw(st.sampled_from([0] + [c for c in candidates if c < n]))
    checkpoint_at = draw(st.sampled_from([None, n] + candidates))
    return {
        "trace": trace,
        "design": draw(st.sampled_from(
            (CacheDesign.cd1(), CacheDesign.cd2()))),
        "policy_name": draw(st.sampled_from(POLICIES)),
        "epoch": draw(st.sampled_from((1, 7, 14, 97, 256))),
        # int(n * warmup) == warm exactly
        "warmup": (warm + 0.5) / n if warm else 0.0,
    }, checkpoint_at


class TestReferenceLoop:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(drawn=scenarios())
    def test_run_loop_matches_per_row_reference(self, drawn):
        scenario, checkpoint_at = drawn
        trace = scenario["trace"]
        result, ref_core = reference_run(**scenario)
        want = _payload(result)
        assert want["instructions"] == \
            len(trace) - int(len(trace) * scenario["warmup"])
        assert_accounting_laws(want["stats"], want["instructions"],
                               want["cycles"])
        for block in BLOCKS:
            sim = Simulator(
                _source(trace, block),
                build_hierarchy(scenario["design"]),
                policy=make_policy(scenario["policy_name"]),
                epoch_length=scenario["epoch"],
                warmup_fraction=scenario["warmup"],
            )
            assert _payload(sim.run(checkpoint_at=checkpoint_at)) == want, \
                f"block size {block}"
            assert _core_state(sim.core) == _core_state(ref_core)
            if checkpoint_at is not None:
                assert sim.checkpoint.position == checkpoint_at
                resumed = Simulator.resume(_source(trace, block),
                                           sim.checkpoint)
                assert _payload(resumed) == want, \
                    f"resumed at {checkpoint_at}, block size {block}"


@pytest.mark.parametrize("workload,policy", golden_cases.RUN_CASES)
def test_golden_cases_obey_the_accounting_laws(workload, policy):
    payload = json.loads(golden_cases.golden_path(
        f"run__{workload}__{policy}").read_text())
    assert_accounting_laws(payload["stats"], payload["instructions"],
                           payload["cycles"])
