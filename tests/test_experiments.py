"""Tests for cache designs, the runner, the oracle, and the DSE harness."""

import pytest

from repro.experiments.configs import CacheDesign, build_hierarchy, system_for
from repro.api.registry import registry
from repro.experiments.runner import ExperimentContext, geomean
from repro.policies import make_policy
from repro.workloads.suites import ReproScale, find_workload

TINY = ReproScale("test", trace_length=3000, workloads_per_figure=4,
                  epoch_length=150)


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(TINY)


class TestCacheDesigns:
    def test_table7_presets(self):
        assert CacheDesign.cd1().prefetcher_names == ("pythia",)
        assert CacheDesign.cd2().prefetcher_names == ("ipcp",)
        assert CacheDesign.cd3().prefetcher_names == ("sms", "pythia")
        assert CacheDesign.cd4().prefetcher_names == ("ipcp", "pythia")
        for design in (CacheDesign.cd1(), CacheDesign.cd2(),
                       CacheDesign.cd3(), CacheDesign.cd4()):
            assert design.ocp_name == "popet"
            assert design.bandwidth_gbps == 3.2

    def test_variants(self):
        d = CacheDesign.cd1()
        assert d.without_mechanisms().prefetcher_names == ()
        assert d.without_mechanisms().ocp_name is None
        assert d.only_ocp().prefetcher_names == ()
        assert d.only_ocp().ocp_name == "popet"
        assert d.only_prefetchers().ocp_name is None
        assert d.with_bandwidth(6.4).bandwidth_gbps == 6.4
        assert d.with_ocp_issue_latency(30).ocp_issue_latency == 30
        assert d.with_ocp("hmp").ocp_name == "hmp"

    def test_signature_distinguishes_variants(self):
        d = CacheDesign.cd1()
        signatures = {
            d.signature(),
            d.only_ocp().signature(),
            d.with_bandwidth(6.4).signature(),
            d.with_ocp_issue_latency(30).signature(),
        }
        assert len(signatures) == 4

    def test_build_hierarchy_wires_components(self):
        h = build_hierarchy(CacheDesign.cd4())
        assert [pf.level for pf in h.prefetchers] == ["l1d", "l2c"]
        assert h.ocp is not None

    def test_system_for_applies_knobs(self):
        design = CacheDesign.cd1(bandwidth_gbps=6.4).with_ocp_issue_latency(18)
        params = system_for(design)
        assert params.dram.bandwidth_gbps == 6.4
        assert params.ocp_issue_latency == 18


class TestRunner:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        # exactly, though exp(log(0.01)) != 0.01
        assert geomean([0.01]) == 0.01
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_policy_registry(self):
        for name in registry.names("policy"):
            make_policy(name)  # must not raise
        with pytest.raises(ValueError):
            make_policy("oracle")
        assert make_policy("none") is None

    def test_athena_policy_with_kwargs(self):
        policy = make_policy("athena", alpha=0.3)
        assert policy.config.alpha == 0.3

    def test_run_caches_by_configuration(self, ctx):
        spec = find_workload("ligra.BFS.0")
        design = CacheDesign.cd1()
        cell = (spec, design)
        first = ctx.runs([cell])[cell]
        executed = ctx.engine.counters.executed
        assert ctx.runs([cell])[cell] is first  # the engine memo's result
        assert ctx.engine.counters.executed == executed

    def test_speedup_relative_to_baseline(self, ctx):
        spec = find_workload("spec06.libquantum_like.0")
        design = CacheDesign.cd1()
        baseline = design.without_mechanisms()
        assert ctx.runs([(spec, baseline)])[spec, baseline].ipc > 0
        assert ctx.speedup(spec, baseline) == pytest.approx(1.0)

    def test_static_combinations_cover_space(self, ctx):
        combos = ctx.static_combinations(CacheDesign.cd1())
        assert len(combos) == 4  # 2 prefetcher subsets x 2 ocp options
        combos4 = ctx.static_combinations(CacheDesign.cd4())
        assert len(combos4) == 8

    def test_static_best_at_least_one(self, ctx):
        spec = find_workload("spec06.mcf_like.0")
        assert ctx.static_best_speedup(spec, CacheDesign.cd1()) >= 1.0

    def test_static_best_dominates_naive(self, ctx):
        spec = find_workload("spec06.mcf_like.0")
        design = CacheDesign.cd1()
        assert (
            ctx.static_best_speedup(spec, design)
            >= ctx.speedup(spec, design) - 1e-9
        )

    def test_classification_partitions_pool(self, ctx):
        workloads = ctx.workload_pool(4)
        friendly, adverse = ctx.classify_workloads(
            CacheDesign.cd1(), workloads
        )
        assert len(friendly) + len(adverse) == 4


class TestDse:
    def test_quick_dse_selects_features(self):
        from repro.experiments.dse import run_dse
        result = run_dse(
            ExperimentContext(TINY), num_tuning_workloads=3, max_features=2
        )
        assert 1 <= len(result.selected_features) <= 2
        assert result.best_score > 0
        assert result.feature_trace
        assert "Selected features" in result.format_table()
