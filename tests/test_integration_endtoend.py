"""End-to-end integration tests: full simulations across designs/policies.

These exercise the whole stack — trace generation, hierarchy, DRAM, core
model, epoch loop, and each coordination policy — on short traces, and
check the cross-cutting invariants that unit tests cannot see.
"""

import pytest

from repro import quick_run
from repro.experiments.configs import CacheDesign, build_hierarchy
from repro.policies import make_policy
from repro.sim.simulator import Simulator
from repro.workloads.suites import build_trace, find_workload

LENGTH = 6_000
EPOCH = 300

DESIGNS = {
    "cd1": CacheDesign.cd1,
    "cd2": CacheDesign.cd2,
    "cd3": CacheDesign.cd3,
    "cd4": CacheDesign.cd4,
}

POLICIES = ("none", "naive", "hpac", "mab", "tlp", "athena")


def run(workload, design, policy):
    spec = find_workload(workload)
    return Simulator(
        build_trace(spec, LENGTH),
        build_hierarchy(design),
        policy=make_policy(policy),
        epoch_length=EPOCH,
    ).run()


class TestEveryDesignEveryPolicy:
    @pytest.mark.parametrize("design_name", sorted(DESIGNS))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_runs_to_completion(self, design_name, policy):
        result = run("ligra.BFS.0", DESIGNS[design_name](), policy)
        assert result.instructions > 0
        assert result.cycles > 0
        assert 0.0 < result.ipc < 6.0  # bounded by the 6-wide core

    @pytest.mark.parametrize("design_name", sorted(DESIGNS))
    def test_policy_epoch_count_matches(self, design_name):
        result = run("ligra.BFS.0", DESIGNS[design_name](), "naive")
        assert len(result.epochs) == len(result.actions)
        assert len(result.epochs) == LENGTH // EPOCH


class TestDeterminism:
    def test_same_run_twice_identical(self):
        a = run("spec06.libquantum_like.0", CacheDesign.cd1(), "athena")
        b = run("spec06.libquantum_like.0", CacheDesign.cd1(), "athena")
        assert a.cycles == b.cycles
        assert a.stats.llc_misses == b.stats.llc_misses
        assert [x.describe() for x in a.actions] == [
            x.describe() for x in b.actions
        ]

    def test_different_workloads_differ(self):
        a = run("spec06.libquantum_like.0", CacheDesign.cd1(), "none")
        b = run("ligra.BFS.0", CacheDesign.cd1(), "none")
        assert a.cycles != b.cycles


class TestActionApplication:
    def test_disabled_prefetchers_issue_nothing(self):
        """A policy that disables every mechanism must silence them."""
        from repro.policies.base import CoordinationAction, FixedPolicy

        spec = find_workload("spec06.libquantum_like.0")
        off = FixedPolicy(CoordinationAction((False,), False))
        hierarchy = build_hierarchy(CacheDesign.cd1())
        result = Simulator(
            build_trace(spec, LENGTH), hierarchy, policy=off,
            epoch_length=EPOCH,
        ).run()
        # The first epoch runs before any decision (mechanisms default
        # on); it falls inside the warm-up region, so the measured totals
        # must be zero and every post-decision epoch silent.
        assert result.stats.prefetches_issued == 0
        assert sum(e.prefetches_issued for e in result.epochs[1:]) == 0
        assert sum(e.ocp_predictions for e in result.epochs[1:]) == 0

    def test_all_off_matches_mechanism_free_design(self):
        """Disabling everything ≈ the baseline design without mechanisms."""
        from repro.policies.base import CoordinationAction, FixedPolicy

        spec = find_workload("ligra.BFS.0")
        off = FixedPolicy(CoordinationAction((False,), False))
        with_policy = Simulator(
            build_trace(spec, LENGTH),
            build_hierarchy(CacheDesign.cd1()),
            policy=off, epoch_length=EPOCH,
        ).run()
        bare = Simulator(
            build_trace(spec, LENGTH),
            build_hierarchy(CacheDesign.cd1().without_mechanisms()),
            epoch_length=EPOCH,
        ).run()
        # First epoch differs (mechanisms on before the first decision);
        # end-to-end cycles must agree within that epoch's contribution.
        assert with_policy.cycles == pytest.approx(bare.cycles, rel=0.15)


class TestNaiveDominatesBaselineOnStreams:
    def test_prefetching_helps_streaming(self):
        base = run("spec06.libquantum_like.0",
                    CacheDesign.cd1().without_mechanisms(), "none")
        naive = run("spec06.libquantum_like.0", CacheDesign.cd1(), "naive")
        assert naive.ipc > base.ipc * 1.05

    def test_prefetching_hurts_adverse_at_low_bandwidth(self):
        base = run("parsec.streamcluster_like.1",
                    CacheDesign.cd3(bandwidth_gbps=1.6).without_mechanisms(),
                    "none")
        naive = run("parsec.streamcluster_like.1",
                    CacheDesign.cd3(bandwidth_gbps=1.6).only_prefetchers(),
                    "naive")
        assert naive.ipc < base.ipc


class TestQuickRun:
    def test_quick_run_speedup_fields(self):
        result = quick_run("ligra.BFS.0", policy="naive", length=LENGTH)
        assert result.ipc > 0
        assert result.baseline_ipc > 0
        assert result.speedup == pytest.approx(
            result.ipc / result.baseline_ipc
        )

    def test_quick_run_rejects_unknown_design(self):
        with pytest.raises(ValueError, match="unknown design"):
            quick_run("ligra.BFS.0", design="cd9", length=LENGTH)

    @pytest.mark.parametrize("policy,options", [
        ("none", {}), ("naive", {}), ("athena", {"seed": 7}),
    ])
    def test_quick_run_matches_a_direct_simulation(self, policy, options):
        # quick_run resolves through the engine; it must still be the
        # one-seed, warmup-0.2 run two hand-built simulations give
        spec = find_workload("ligra.BFS.0")
        design = CacheDesign.cd1()
        epoch_length = max(100, LENGTH // 40)
        direct = Simulator(
            build_trace(spec, LENGTH), build_hierarchy(design),
            policy=make_policy(policy, **options),
            epoch_length=epoch_length,
        ).run()
        baseline = Simulator(
            build_trace(spec, LENGTH),
            build_hierarchy(design.without_mechanisms()),
            epoch_length=epoch_length,
        ).run()
        result = quick_run("ligra.BFS.0", policy=policy, length=LENGTH,
                           policy_options=options)
        assert result.ipc == direct.ipc
        assert result.baseline_ipc == baseline.ipc
        assert result.speedup == direct.ipc / baseline.ipc
        assert result.result.stats == direct.stats

    def test_only_the_engine_constructs_simulators(self):
        # one execution path: every simulation outside the benchmark
        # harness is a job the engine runs
        import ast
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        allowed = {root / "engine" / "jobs.py", root / "bench.py"}
        builders = {"Simulator", "MultiCoreSimulator"}
        offenders = []
        for path in sorted(root.rglob("*.py")):
            if path in allowed:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute)
                        else None)
                if name in builders:
                    offenders.append(f"{path.relative_to(root)}:"
                                     f"{node.lineno}")
        assert offenders == []

    @pytest.mark.parametrize("design", ["cd1", "cd2", "cd3", "cd4"])
    def test_quick_run_every_design(self, design):
        result = quick_run("ligra.BFS.0", policy="none", design=design,
                           length=LENGTH)
        assert result.speedup > 0


class TestTelemetryConsistency:
    def test_epoch_instruction_totals(self):
        result = run("ligra.BFS.0", CacheDesign.cd1(), "naive")
        for epoch in result.epochs:
            assert epoch.instructions <= EPOCH
        assert sum(e.instructions for e in result.epochs) <= LENGTH

    def test_bandwidth_shares_sum_to_one(self):
        result = run("spec06.libquantum_like.0", CacheDesign.cd1(), "naive")
        for epoch in result.epochs:
            if epoch.dram_requests:
                total = (
                    epoch.prefetch_bandwidth_share
                    + epoch.ocp_bandwidth_share
                    + epoch.demand_bandwidth_share
                )
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_feature_values_bounded(self):
        result = run("ligra.BFS.0", CacheDesign.cd1(), "naive")
        for epoch in result.epochs:
            assert 0.0 <= epoch.prefetcher_accuracy <= 1.0
            assert 0.0 <= epoch.ocp_accuracy <= 1.0
            assert 0.0 <= epoch.bandwidth_usage <= 1.0
            assert 0.0 <= epoch.cache_pollution <= 1.0
