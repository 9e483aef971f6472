"""Integration tests for the single-core simulator and its epoch loop."""

import pytest

from repro.engine.jobs import RunRequest
from repro.experiments.configs import CacheDesign
from repro.policies.base import CoordinationAction, CoordinationPolicy, NaivePolicy
from repro.prefetchers.streamer import StreamPrefetcher
from repro.ocp.ttp import TtpPredictor
from repro.sim.hierarchy import CacheHierarchy
from repro.sim.params import scaled_system
from repro.sim.simulator import Simulator
from repro.workloads.suites import (
    SCALES,
    WorkloadSpec,
    build_trace,
    find_workload,
)


def make_trace(pattern="streaming", length=3000, seed=5):
    return WorkloadSpec("t", "test", pattern, seed).build(length)


def make_hierarchy(prefetch=True, ocp=True):
    return CacheHierarchy(
        scaled_system(),
        prefetchers=[StreamPrefetcher()] if prefetch else [],
        ocp=TtpPredictor() if ocp else None,
    )


class RecordingPolicy(CoordinationPolicy):
    """Counts decisions and alternates the prefetcher enable bit."""

    def __init__(self):
        super().__init__()
        self.telemetries = []

    def decide(self, telemetry):
        self.telemetries.append(telemetry)
        on = len(self.telemetries) % 2 == 0
        return CoordinationAction(
            prefetchers_enabled=(on,) * self.num_prefetchers,
            ocp_enabled=self.has_ocp,
        )


class TestBasicRun:
    def test_run_completes_and_counts_instructions(self):
        trace = make_trace(length=2000)
        result = Simulator(trace, make_hierarchy(), warmup_fraction=0.0).run()
        assert result.instructions == len(trace)
        assert result.cycles > 0
        assert 0 < result.ipc < 6.0

    def test_stats_partitioned_by_type(self):
        trace = make_trace(length=2000)
        result = Simulator(trace, make_hierarchy(), warmup_fraction=0.0).run()
        assert result.stats.loads == trace.num_loads
        assert result.stats.stores == trace.num_stores
        assert result.stats.branches == trace.num_branches

    def test_warmup_excludes_stats_but_not_state(self):
        trace = make_trace(length=4000)
        warm = Simulator(trace, make_hierarchy(), warmup_fraction=0.5).run()
        assert warm.instructions == 2000
        assert warm.cycles > 0

    def test_invalid_parameters_rejected(self):
        trace = make_trace(length=100)
        with pytest.raises(ValueError):
            Simulator(trace, make_hierarchy(), epoch_length=0)
        with pytest.raises(ValueError):
            Simulator(trace, make_hierarchy(), warmup_fraction=1.0)

    def test_deterministic(self):
        trace = make_trace(length=2000)
        a = Simulator(trace, make_hierarchy(), warmup_fraction=0.0).run()
        b = Simulator(trace, make_hierarchy(), warmup_fraction=0.0).run()
        assert a.cycles == b.cycles
        assert a.stats.llc_misses == b.stats.llc_misses


class TestEpochLoop:
    def test_policy_called_once_per_epoch(self):
        trace = make_trace(length=3000)
        policy = RecordingPolicy()
        Simulator(trace, make_hierarchy(), policy=policy,
                  epoch_length=250, warmup_fraction=0.0).run()
        assert len(policy.telemetries) == len(trace) // 250

    def test_epoch_telemetry_instruction_counts(self):
        trace = make_trace(length=3000)
        policy = RecordingPolicy()
        Simulator(trace, make_hierarchy(), policy=policy,
                  epoch_length=250, warmup_fraction=0.0).run()
        for telemetry in policy.telemetries[1:]:
            assert telemetry.instructions == 250

    def test_actions_actually_gate_prefetcher(self):
        trace = make_trace(length=4000)
        h = make_hierarchy()
        policy = RecordingPolicy()
        result = Simulator(trace, h, policy=policy, epoch_length=200,
                           warmup_fraction=0.0).run()
        # Policy alternates enable/disable; with a pure stream the enabled
        # epochs issue prefetches, so the count is well below always-on.
        always_on = Simulator(
            make_trace(length=4000), make_hierarchy(),
            policy=NaivePolicy(), epoch_length=200, warmup_fraction=0.0,
        ).run()
        assert 0 < result.stats.prefetches_issued
        assert result.stats.prefetches_issued < always_on.stats.prefetches_issued

    def test_telemetry_features_in_unit_range(self):
        trace = make_trace("hash_probe", length=4000)
        policy = RecordingPolicy()
        Simulator(trace, make_hierarchy(), policy=policy,
                  epoch_length=200, warmup_fraction=0.0).run()
        for t in policy.telemetries:
            assert 0.0 <= t.bandwidth_usage <= 1.0
            assert 0.0 <= t.prefetcher_accuracy <= 1.0
            assert 0.0 <= t.ocp_accuracy <= 1.0
            assert 0.0 <= t.cache_pollution <= 1.0

    def test_action_history_recorded_in_result(self):
        trace = make_trace(length=2000)
        result = Simulator(trace, make_hierarchy(), policy=NaivePolicy(),
                           epoch_length=200, warmup_fraction=0.0).run()
        assert len(result.actions) == len(trace) // 200
        dist = result.action_distribution()
        assert sum(dist.values()) == pytest.approx(1.0)


class TestBehaviouralShape:
    """The paper's headline phenomena must hold on this substrate."""

    def test_prefetching_speeds_up_streams(self):
        trace = make_trace("streaming", length=6000)
        base = Simulator(trace, make_hierarchy(prefetch=False, ocp=False)).run()
        pf = Simulator(trace, make_hierarchy(prefetch=True, ocp=False)).run()
        assert pf.ipc > base.ipc * 1.2

    def test_prefetching_hurts_pointer_chase(self):
        from repro.prefetchers.pythia import PythiaPrefetcher
        trace = make_trace("hash_probe", length=6000)
        base = Simulator(trace, make_hierarchy(prefetch=False, ocp=False)).run()
        h = CacheHierarchy(scaled_system(), prefetchers=[PythiaPrefetcher()])
        pf = Simulator(trace, h).run()
        assert pf.ipc < base.ipc

    def test_ocp_speeds_up_pointer_chase(self):
        from repro.ocp.popet import PopetPredictor
        trace = make_trace("pointer_chase", length=6000)
        base = Simulator(trace, make_hierarchy(prefetch=False, ocp=False)).run()
        h = CacheHierarchy(scaled_system(), ocp=PopetPredictor())
        ocp = Simulator(trace, h).run()
        assert ocp.ipc > base.ipc * 1.05

    def test_bandwidth_scaling_improves_memory_bound_ipc(self):
        trace = make_trace("hash_probe", length=6000)
        slow = Simulator(
            trace, CacheHierarchy(scaled_system(bandwidth_gbps=1.6))
        ).run()
        fast = Simulator(
            trace, CacheHierarchy(scaled_system(bandwidth_gbps=12.8))
        ).run()
        assert fast.ipc > slow.ipc * 1.3

    def test_registry_workload_runs_end_to_end(self):
        trace = build_trace(find_workload("spec06.mcf_like.0"), 4000)
        result = Simulator(trace, make_hierarchy()).run()
        assert result.stats.llc_mpki > 3.0  # paper's inclusion criterion


class TestWarmupBoundaryEpoch:
    """Pins today's warmup boundary: the reset runs before the epoch
    ending at the same instruction closes, so the policy decides on an
    empty epoch and the last warmup epoch is never reported.  ROADMAP
    item 2 closes that epoch before the reset; this pin flips with the
    fix."""

    @pytest.mark.parametrize("policy", ["hpac", "athena"])
    def test_small_scale_run_has_an_empty_epoch_at_the_warmup_end(
            self, policy):
        scale = SCALES["small"]
        result = RunRequest(
            spec=find_workload("spec06.mcf_like.0"),
            trace_length=scale.trace_length,
            design=CacheDesign.cd1(),
            policy_name=policy,
            epoch_length=scale.epoch_length,
            warmup_fraction=scale.warmup_fraction,
        ).execute()
        warmup = int(scale.trace_length * scale.warmup_fraction)
        assert warmup // scale.epoch_length == 14
        empty = [e for e in result.epochs if e.instructions == 0]
        assert [(e.epoch_index, e.cycles) for e in empty] == [(13, 0.0)]
        assert result.epochs[13] is empty[0]
