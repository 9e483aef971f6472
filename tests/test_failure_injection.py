"""Failure-injection and input-validation tests.

The library must fail loudly and precisely on misuse — bad configs, bad
action shapes, broken policies — rather than silently producing wrong
performance numbers.
"""

import pytest

from repro.core.config import AthenaConfig
from repro.core.features import StateQuantizer
from repro.core.qvstore import QVStore
from repro.experiments.configs import CacheDesign, build_hierarchy
from repro.policies import make_policy
from repro.policies.base import CoordinationAction, CoordinationPolicy
from repro.sim.simulator import Simulator
from repro.workloads.suites import build_trace, find_workload
from repro.workloads.trace import TraceBuilder


def tiny_trace(n=600):
    return build_trace(find_workload("ligra.BFS.0"), n)


class TestSimulatorValidation:
    def test_rejects_nonpositive_epoch(self):
        with pytest.raises(ValueError, match="epoch_length"):
            Simulator(tiny_trace(), build_hierarchy(CacheDesign.cd1()),
                      epoch_length=0)

    def test_rejects_bad_warmup_fraction(self):
        with pytest.raises(ValueError, match="warmup_fraction"):
            Simulator(tiny_trace(), build_hierarchy(CacheDesign.cd1()),
                      epoch_length=100, warmup_fraction=1.0)

    def test_empty_trace_runs_cleanly(self):
        trace = TraceBuilder("empty", "test").build()
        result = Simulator(
            trace, build_hierarchy(CacheDesign.cd1()), epoch_length=100
        ).run()
        assert result.instructions == 0
        assert result.ipc == 0.0


class TestBrokenPolicyPropagates:
    def test_policy_exception_not_swallowed(self):
        class Exploding(CoordinationPolicy):
            def decide(self, telemetry):
                raise RuntimeError("policy blew up")

        sim = Simulator(
            tiny_trace(), build_hierarchy(CacheDesign.cd1()),
            policy=Exploding(), epoch_length=100,
        )
        with pytest.raises(RuntimeError, match="policy blew up"):
            sim.run()

    def test_wrong_action_shape_rejected(self):
        class WrongShape(CoordinationPolicy):
            def decide(self, telemetry):
                # Two prefetcher flags for a one-prefetcher hierarchy.
                return CoordinationAction((True, True), True)

        sim = Simulator(
            tiny_trace(), build_hierarchy(CacheDesign.cd1()),
            policy=WrongShape(), epoch_length=100,
        )
        with pytest.raises(ValueError, match="expected 1 flags"):
            sim.run()


class TestConfigValidation:
    def test_unknown_feature_rejected(self):
        with pytest.raises(ValueError, match="unknown features"):
            StateQuantizer(("no_such_feature",), bins=4)

    def test_non_power_of_two_bins_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            StateQuantizer(("prefetcher_accuracy",), bins=3)

    def test_qvstore_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            QVStore(num_actions=0, num_planes=8, rows_per_plane=64)
        with pytest.raises(ValueError):
            QVStore(num_actions=4, num_planes=0, rows_per_plane=64)

    def test_athena_config_immutable(self):
        config = AthenaConfig()
        with pytest.raises(Exception):
            config.alpha = 0.9

    def test_with_updates_returns_new_config(self):
        config = AthenaConfig()
        updated = config.with_updates(alpha=0.1)
        assert updated.alpha == 0.1
        assert config.alpha != 0.1


class TestRegistryValidation:
    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            find_workload("no.such.workload")

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("no_such_policy")

    def test_unknown_scale(self, monkeypatch):
        from repro.workloads.suites import active_scale

        monkeypatch.setenv("REPRO_SCALE", "galactic")
        with pytest.raises(ValueError, match="REPRO_SCALE"):
            active_scale()


class TestDegradedInputs:
    def test_degree_fraction_extremes_survive_simulation(self):
        from repro.policies.base import FixedPolicy

        for fraction in (0.0, 1e-9, 1.0):
            policy = FixedPolicy(
                CoordinationAction((True,), True, degree_fraction=fraction)
            )
            result = Simulator(
                tiny_trace(), build_hierarchy(CacheDesign.cd1()),
                policy=policy, epoch_length=100,
            ).run()
            assert result.cycles > 0

    def test_hierarchy_without_prefetchers_and_policy(self):
        """Coordination over an empty mechanism set must not crash."""
        design = CacheDesign.cd1().without_mechanisms()
        result = Simulator(
            tiny_trace(), build_hierarchy(design),
            policy=make_policy("naive"), epoch_length=100,
        ).run()
        assert result.stats.prefetches_issued == 0

    def test_athena_without_ocp(self):
        design = CacheDesign.cd1().with_ocp(None)
        result = Simulator(
            tiny_trace(), build_hierarchy(design),
            policy=make_policy("athena"), epoch_length=100,
        ).run()
        assert result.stats.ocp_predictions == 0

    def test_athena_single_action_space(self):
        """No prefetchers, no OCP: the action space collapses to one."""
        design = CacheDesign.cd1().without_mechanisms()
        result = Simulator(
            tiny_trace(), build_hierarchy(design),
            policy=make_policy("athena"), epoch_length=100,
        ).run()
        assert result.cycles > 0
