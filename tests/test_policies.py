"""Unit tests for the coordination policies (Naive, HPAC, MAB, TLP, Athena)."""

import pytest

from repro.policies.athena import AthenaPolicy
from repro.policies.base import (
    CoordinationAction,
    FixedPolicy,
    NaivePolicy,
    enumerate_actions,
)
from repro.policies.hpac import HpacPolicy, HpacThresholds
from repro.policies.mab import MabPolicy
from repro.policies.tlp import TlpPolicy
from repro.prefetchers.streamer import StreamPrefetcher
from repro.ocp.ttp import TtpPredictor
from repro.sim.hierarchy import CacheHierarchy
from repro.sim.params import scaled_system
from repro.sim.simulator import Simulator
from repro.sim.stats import EpochTelemetry
from repro.workloads.suites import build_trace, find_workload


def hierarchy(num_prefetchers=1, with_ocp=True):
    return CacheHierarchy(
        scaled_system(),
        prefetchers=[StreamPrefetcher() for _ in range(num_prefetchers)],
        ocp=TtpPredictor() if with_ocp else None,
    )


def telemetry(**kwargs):
    defaults = dict(instructions=200, cycles=1000.0, loads=50,
                    prefetches_issued=20, ocp_predictions=10)
    defaults.update(kwargs)
    return EpochTelemetry(**defaults)


class TestActionSpace:
    def test_four_actions_single_prefetcher(self):
        actions = enumerate_actions(1, with_ocp=True)
        assert len(actions) == 4
        combos = {(a.prefetchers_enabled, a.ocp_enabled) for a in actions}
        assert ((False,), False) in combos
        assert ((True,), True) in combos

    def test_eight_actions_two_prefetchers(self):
        """Paper §6.2.3: eight arms for one OCP plus two prefetchers."""
        assert len(enumerate_actions(2, with_ocp=True)) == 8

    def test_ocp_less_space_halves(self):
        assert len(enumerate_actions(2, with_ocp=False)) == 4

    def test_describe(self):
        action = CoordinationAction((True, False), True, 0.5)
        assert action.describe() == "<P-|O|d=0.50>"


class TestNaiveAndFixed:
    def test_naive_always_everything_on(self):
        policy = NaivePolicy()
        policy.attach(hierarchy(2))
        for _ in range(5):
            action = policy.decide(telemetry())
            assert action.prefetchers_enabled == (True, True)
            assert action.ocp_enabled
            assert action.degree_fraction == 1.0

    def test_fixed_policy_repeats_configured_action(self):
        target = CoordinationAction((False,), True, 1.0)
        policy = FixedPolicy(target)
        policy.attach(hierarchy(1))
        assert policy.decide(telemetry()) == target

    def test_fixed_defaults_to_all_on(self):
        policy = FixedPolicy()
        policy.attach(hierarchy(1))
        assert policy.decide(telemetry()).prefetchers_enabled == (True,)


class TestHpac:
    def test_throttles_down_on_inaccuracy(self):
        policy = HpacPolicy()
        policy.attach(hierarchy(1))
        for _ in range(4):
            action = policy.decide(telemetry(
                prefetcher_accuracy=0.05, bandwidth_usage=0.95,
            ))
        assert not action.prefetchers_enabled[0]

    def test_throttles_up_with_hysteresis(self):
        policy = HpacPolicy(HpacThresholds(up_hysteresis=2))
        policy.attach(hierarchy(1))
        good = telemetry(prefetcher_accuracy=0.9, bandwidth_usage=0.2)
        first = policy.decide(good)
        assert policy._levels[0] == 2  # no move before the streak completes
        policy.decide(good)
        assert policy._levels[0] == 3
        assert first.prefetchers_enabled[0]

    def test_reprobe_after_disable(self):
        thresholds = HpacThresholds(reprobe_epochs=3)
        policy = HpacPolicy(thresholds)
        policy.attach(hierarchy(1))
        bad = telemetry(prefetcher_accuracy=0.0, bandwidth_usage=0.99)
        actions = [policy.decide(bad) for _ in range(10)]
        levels_seen = {a.prefetchers_enabled[0] for a in actions}
        assert levels_seen == {True, False}  # re-probes periodically

    def test_ocp_disabled_on_low_accuracy(self):
        policy = HpacPolicy()
        policy.attach(hierarchy(1))
        action = policy.decide(telemetry(ocp_accuracy=0.1, ocp_predictions=50))
        assert not action.ocp_enabled

    def test_ocp_enabled_on_high_accuracy(self):
        policy = HpacPolicy()
        policy.attach(hierarchy(1))
        action = policy.decide(telemetry(ocp_accuracy=0.9, ocp_predictions=50))
        assert action.ocp_enabled


class TestMab:
    def test_explores_every_arm_first(self):
        policy = MabPolicy()
        policy.attach(hierarchy(1))
        seen = set()
        for _ in range(len(policy.arms)):
            action = policy.decide(telemetry())
            seen.add((action.prefetchers_enabled, action.ocp_enabled))
        assert len(seen) >= 3

    def test_converges_to_rewarding_arm(self):
        policy = MabPolicy(exploration_coefficient=0.1)
        policy.attach(hierarchy(1))
        # The "all off" arm is made to look fast; every other arm slow.
        chosen = []
        for _ in range(200):
            last = policy.arms[policy._last_arm]
            anything_on = any(last.prefetchers_enabled) or last.ocp_enabled
            cycles = 2000.0 if anything_on else 500.0
            chosen.append(policy.decide(telemetry(cycles=cycles)))
        off = sum(
            1 for a in chosen[-40:]
            if not any(a.prefetchers_enabled) and not a.ocp_enabled
        )
        assert off >= 20

    def test_rejects_bad_discount(self):
        with pytest.raises(ValueError):
            MabPolicy(discount=0.0)

    def test_eight_arms_for_two_prefetchers(self):
        policy = MabPolicy()
        policy.attach(hierarchy(2))
        assert len(policy.arms) == 8


class TestTlp:
    def test_keeps_everything_enabled(self):
        policy = TlpPolicy()
        policy.attach(hierarchy(1))
        action = policy.decide(telemetry())
        assert action.prefetchers_enabled == (True,)
        assert action.ocp_enabled

    def test_installs_prefetch_filter(self):
        h = hierarchy(1)
        policy = TlpPolicy()
        policy.attach(h)
        assert h.prefetch_filter is not None

    def test_filters_only_l1d(self):
        policy = TlpPolicy()
        policy.attach(hierarchy(1))
        # Line 999 is absent from L2C/LLC: the fill would come from DRAM.
        assert policy._filter(0x400, 999, "l2c")     # L2C never filtered
        assert not policy._filter(0x400, 999, "l1d")
        assert policy.filtered_prefetches == 1

    def test_allows_onchip_fill_prefetches(self):
        h = hierarchy(1)
        policy = TlpPolicy()
        policy.attach(h)
        # Fill line 999 into the L2C: now the L1D prefetch would be an
        # on-chip pull-up, which TLP never filters.
        h.l2c.fill_fast(999, pc=0x800)
        assert policy._filter(0x800, 999, "l1d")
        assert policy.allowed_prefetches == 1


class TestAthenaPolicy:
    @staticmethod
    def decide(policy, t):
        """Close the tracker's epoch as a run's measured region does,
        then decide."""
        policy.hierarchy.tracker.close_epoch(t)
        return policy.decide(t)

    def test_action_space_matches_design(self):
        policy = AthenaPolicy()
        policy.attach(hierarchy(2))
        assert len(policy.actions) == 8
        assert policy.agent.num_actions == 8

    def test_decide_before_attach_raises(self):
        with pytest.raises(RuntimeError):
            AthenaPolicy().decide(telemetry())

    def test_degree_floor_when_prefetching(self):
        policy = AthenaPolicy()
        policy.attach(hierarchy(1))
        for _ in range(30):
            action = self.decide(policy, telemetry())
            if any(action.prefetchers_enabled):
                assert action.degree_fraction >= 1.0 / 8.0

    def test_action_distribution_sums_to_one(self):
        trace = build_trace(find_workload("spec06.mcf_like.0"), 4000)
        result = Simulator(trace, hierarchy(1), policy=AthenaPolicy(),
                           epoch_length=100, warmup_fraction=0.0).run()
        dist = result.action_distribution()
        assert len(dist) > 1
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_storage_under_4kib(self):
        policy = AthenaPolicy()
        policy.attach(hierarchy(1))
        assert policy.storage_kib() < 4.0

    def test_prefetcher_only_mode(self):
        """§7.6: Athena works with no OCP (4 actions for 2 prefetchers)."""
        policy = AthenaPolicy()
        policy.attach(hierarchy(2, with_ocp=False))
        assert len(policy.actions) == 4
        action = self.decide(policy, telemetry())
        assert not action.ocp_enabled
