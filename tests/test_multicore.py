"""Tests for the multi-core simulator (shared LLC + DRAM)."""

import copy
from dataclasses import asdict

import pytest

from repro.engine.jobs import MixRequest, RunRequest
from repro.experiments.configs import CacheDesign, build_hierarchy, system_for
from repro.policies.athena import AthenaPolicy
from repro.policies.base import NaivePolicy
from repro.sim.multicore import MultiCoreResult, MultiCoreSimulator
from repro.sim.region import MeasuredRegion
from repro.sim.stats import SimStats
from repro.workloads.suites import WorkloadSpec, find_workload


def traces(n, pattern="streaming", length=2000):
    return [
        WorkloadSpec(f"t{i}", "test", pattern, 10 + i).build(length)
        for i in range(n)
    ]


def run_multicore(n_cores=2, pattern="streaming", design=None,
                  policy_factory=lambda: None, length=2000):
    design = design or CacheDesign.cd1()
    params = system_for(design)
    sim = MultiCoreSimulator(
        traces=traces(n_cores, pattern, length),
        params=params,
        hierarchy_factory=lambda p, llc, dram: build_hierarchy(
            design, params=p, llc=llc, dram=dram
        ),
        policy_factory=policy_factory,
        instructions_per_core=length,
        epoch_length=200,
    )
    return sim.run()


class TestBasics:
    def test_all_cores_complete(self):
        result = run_multicore(4)
        assert len(result.cores) == 4
        for core in result.cores:
            assert core.instructions == 2000
            assert core.ipc > 0

    def test_empty_traces_rejected(self):
        design = CacheDesign.cd1()
        with pytest.raises(ValueError):
            MultiCoreSimulator(
                traces=[], params=system_for(design),
                hierarchy_factory=lambda p, llc, dram: None,
                policy_factory=lambda: None,
                instructions_per_core=100,
            )

    def test_zero_length_trace_rejected(self):
        # a core replays its trace until it retires its quota: an empty
        # trace could never get there
        design = CacheDesign.cd1()
        with pytest.raises(ValueError, match="empty trace"):
            MultiCoreSimulator(
                traces=traces(1) + traces(1, length=0),
                params=system_for(design),
                hierarchy_factory=lambda p, llc, dram: None,
                policy_factory=lambda: None,
                instructions_per_core=100,
            )

    def test_nonpositive_epoch_length_rejected(self):
        # an epoch of no instructions would end at the same instruction
        # forever; the multi-core simulator refuses it as the single-core
        # one does
        design = CacheDesign.cd1()
        with pytest.raises(ValueError, match="epoch_length must be positive"):
            MultiCoreSimulator(
                traces=traces(1, length=500),
                params=system_for(design),
                hierarchy_factory=lambda p, llc, dram: build_hierarchy(
                    design, params=p, llc=llc, dram=dram),
                policy_factory=NaivePolicy,
                instructions_per_core=500,
                epoch_length=0,
            )
        request = MixRequest(workloads=(find_workload("ligra.BFS.0"),),
                             trace_length=500, design=design,
                             policy_name="naive", epoch_length=0)
        with pytest.raises(ValueError, match="epoch_length must be positive"):
            request.execute()

    def test_short_trace_replayed(self):
        design = CacheDesign.cd1().without_mechanisms()
        params = system_for(design)
        short = traces(1, length=500)
        sim = MultiCoreSimulator(
            traces=short, params=params,
            hierarchy_factory=lambda p, llc, dram: build_hierarchy(
                design, params=p, llc=llc, dram=dram
            ),
            policy_factory=lambda: None,
            instructions_per_core=2000,
        )
        result = sim.run()
        assert result.cores[0].instructions == 2000


class TestSharedResources:
    def test_contention_slows_cores_down(self):
        """Two memory-bound cores sharing one DRAM channel must each run
        slower than a core running alone."""
        alone = run_multicore(1, pattern="hash_probe")
        shared = run_multicore(4, pattern="hash_probe")
        assert shared.cores[0].ipc < alone.cores[0].ipc

    def test_weighted_speedup_identity(self):
        result = run_multicore(2)
        assert result.weighted_speedup(result) == pytest.approx(1.0)

    def test_weighted_speedup_mismatch_rejected(self):
        a = run_multicore(2)
        b = run_multicore(4)
        with pytest.raises(ValueError):
            a.weighted_speedup(b)

    def test_per_core_policies_independent(self):
        design = CacheDesign.cd1()
        params = system_for(design)
        policies = []

        def factory():
            policy = AthenaPolicy()
            policies.append(policy)
            return policy

        sim = MultiCoreSimulator(
            traces=traces(2, "hash_probe"),
            params=params,
            hierarchy_factory=lambda p, llc, dram: build_hierarchy(
                design, params=p, llc=llc, dram=dram
            ),
            policy_factory=factory,
            instructions_per_core=2000,
            epoch_length=200,
        )
        sim.run()
        assert len(policies) == 2
        assert policies[0].agent is not policies[1].agent
        # Each core's private hierarchy holds its own feature tracker.
        assert policies[0].hierarchy.tracker is not \
            policies[1].hierarchy.tracker
        assert policies[0].agent.decisions


class TestOneCoreMixIsASingleCoreRun:
    """With the warmup a whole number of epochs, a one-core mix and a
    single-core run of the same trace are the same simulation."""

    @pytest.mark.parametrize("policy", ["none", "naive", "hpac", "athena"])
    @pytest.mark.parametrize("workload", [
        "spec06.mcf_like.0", "ligra.BFS.0", "spec06.libquantum_like.0"])
    def test_same_stats_and_cycles(self, workload, policy):
        fields = dict(trace_length=6000, design=CacheDesign.cd1(),
                      policy_name=policy, epoch_length=150,
                      warmup_fraction=0.35)
        assert int(6000 * 0.35) % 150 == 0
        spec = find_workload(workload)
        single = RunRequest(spec=spec, **fields).execute()
        [core] = MixRequest(workloads=(spec,), **fields).execute().cores
        assert asdict(core.stats) == asdict(single.stats)
        assert core.cycles == single.cycles
        assert core.instructions == single.instructions


class _RecordingNaive(NaivePolicy):
    def __init__(self):
        super().__init__()
        self.telemetries = []

    def decide(self, telemetry):
        self.telemetries.append(telemetry)
        return super().decide(telemetry)


class TestWarmupBoundaryEpoch:
    """Pins today's warmup boundary: the reset runs before the epoch
    ending at the same instruction closes, so each core's policy decides
    once on an empty epoch.  ROADMAP item 2 closes the last warmup epoch
    before the reset; this pin flips with that fix."""

    def test_each_core_sees_one_empty_epoch_at_its_warmup_end(self):
        design = CacheDesign.cd1()
        policies = []

        def factory():
            policies.append(_RecordingNaive())
            return policies[-1]

        sim = MultiCoreSimulator(
            traces=traces(2, "hash_probe", 3000),
            params=system_for(design),
            hierarchy_factory=lambda p, llc, dram: build_hierarchy(
                design, params=p, llc=llc, dram=dram
            ),
            policy_factory=factory,
            instructions_per_core=3000,
            epoch_length=150,
            warmup_fraction=0.35,
        )
        sim.run()
        warmup_epochs = sim.warmup_instructions // 150
        assert warmup_epochs == 7
        for policy in policies:
            empty = [t for t in policy.telemetries if t.instructions == 0]
            assert [(t.epoch_index, t.cycles) for t in empty] == \
                [(warmup_epochs - 1, 0.0)]


class TestWarmupEndLeavesSharedStateAlone:
    """A core's warmup reset zeroes its own counters only: the shared
    LLC and DRAM are exactly as they were, so a mix core's measured
    region is built like a single-core run's."""

    def test_shared_llc_and_dram_unchanged_across_each_warmup_end(
            self, monkeypatch):
        design = CacheDesign.cd1()
        sim = MultiCoreSimulator(
            traces=traces(2, "hash_probe", 1500),
            params=system_for(design),
            hierarchy_factory=lambda p, llc, dram: build_hierarchy(
                design, params=p, llc=llc, dram=dram),
            policy_factory=NaivePolicy,
            instructions_per_core=1500,
            epoch_length=100,
            warmup_fraction=0.3,
        )

        def shared_state():
            llc = {name: value for name, value in vars(sim.shared_llc).items()
                   if name != "_slot_get"}  # a bound dict.get alias
            return copy.deepcopy((llc, vars(sim.shared_dram)))

        end_warmup = MeasuredRegion.end_warmup
        clocks = []

        def checked_end_warmup(region, cycles):
            before = shared_state()
            end_warmup(region, cycles)
            assert shared_state() == before
            assert region.hierarchy.stats == SimStats()
            clocks.append(cycles)

        monkeypatch.setattr(MeasuredRegion, "end_warmup",
                            checked_end_warmup)
        sim.run()
        assert len(clocks) == 2 and clocks[0] != clocks[1]
        assert sim.shared_llc.occupancy() > 0
