"""Tests for the Athena SARSA agent (paper §4, Algorithm 1, Table 4)."""

import pytest

from repro.core.agent import AthenaAgent
from repro.core.config import AthenaConfig, PAPER_CONFIG
from repro.core.features import FeatureTracker
from repro.sim.stats import EpochTelemetry


def telemetry(cycles=1000.0, loads=60, mispred=5, **kwargs):
    defaults = dict(
        instructions=200,
        cycles=cycles,
        loads=loads,
        mispredicted_branches=mispred,
        llc_misses=20,
        llc_miss_latency_sum=4000.0,
        bandwidth_usage=0.5,
    )
    defaults.update(kwargs)
    return EpochTelemetry(**defaults)


def end_epoch(agent, t):
    """End an epoch on telemetry ``t``, with the features an idle
    tracker freezes for it."""
    return agent.end_epoch(t, FeatureTracker().epoch_features(t))


class TestDecisions:
    def test_returns_valid_action_index(self):
        agent = AthenaAgent(num_actions=4)
        for _ in range(20):
            decision = end_epoch(agent, telemetry())
            assert 0 <= decision.action_index < 4

    def test_degree_fraction_in_unit_interval(self):
        agent = AthenaAgent(num_actions=4)
        for i in range(50):
            decision = end_epoch(agent, telemetry(cycles=1000.0 + 10 * i))
            assert 0.0 <= decision.degree_fraction <= 1.0

    def test_decisions_recorded(self):
        agent = AthenaAgent(num_actions=4)
        for _ in range(7):
            end_epoch(agent, telemetry())
        assert len(agent.decisions) == 7

    def test_deterministic_given_seed(self):
        a = AthenaAgent(4, AthenaConfig(seed=11))
        b = AthenaAgent(4, AthenaConfig(seed=11))
        for i in range(30):
            t = telemetry(cycles=1000.0 + 37 * (i % 5))
            assert end_epoch(a, t).action_index == end_epoch(b, t).action_index

    def test_different_seeds_can_differ(self):
        a = AthenaAgent(4, AthenaConfig(seed=1, epsilon=0.5))
        b = AthenaAgent(4, AthenaConfig(seed=2, epsilon=0.5))
        actions_a = [end_epoch(a, telemetry()).action_index for _ in range(30)]
        actions_b = [end_epoch(b, telemetry()).action_index for _ in range(30)]
        assert actions_a != actions_b


class TestLearning:
    def test_learns_to_avoid_punished_action(self):
        """Actions followed by cycle increases must lose Q-value and stop
        being selected (the agent's core competence)."""
        config = AthenaConfig(epsilon=0.0, seed=3)
        agent = AthenaAgent(num_actions=2, config=config)
        # Action 0 doubles cycles; action 1 halves them (bounded).
        cycles = 1000.0
        for _ in range(80):
            decision = end_epoch(agent, telemetry(cycles=cycles))
            if decision.action_index == 0:
                cycles = min(4000.0, cycles * 1.5)
            else:
                cycles = max(500.0, cycles * 0.8)
        late_actions = [d.action_index for d in agent.decisions[-20:]]
        assert late_actions.count(1) > late_actions.count(0)

    def test_cumulative_reward_tracked(self):
        agent = AthenaAgent(4)
        end_epoch(agent, telemetry(cycles=1000.0))
        end_epoch(agent, telemetry(cycles=500.0))
        assert agent.cumulative_reward > 0.0

    def test_stateless_mode_uses_single_state(self):
        agent = AthenaAgent(4, AthenaConfig(stateless=True))
        d1 = end_epoch(agent, telemetry(bandwidth_usage=0.1))
        d2 = end_epoch(agent, telemetry(bandwidth_usage=0.9))
        assert d1.state == d2.state == 0


class TestAlgorithm1:
    def test_degree_zero_when_chosen_action_not_preferred(self):
        agent = AthenaAgent(2, AthenaConfig(epsilon=0.0, q_init=0.0))
        agent.qvstore.update(0, 0, -0.5)
        # Direct unit test of the confidence computation.
        assert agent._degree_fraction([-0.5, 0.0], 0) == 0.0

    def test_degree_saturates_at_tau(self):
        config = AthenaConfig(tau=0.12)
        agent = AthenaAgent(2, config)
        assert agent._degree_fraction([0.5, 0.0], 0) == 1.0

    def test_degree_proportional_below_tau(self):
        config = AthenaConfig(tau=0.12)
        agent = AthenaAgent(2, config)
        assert agent._degree_fraction([0.06, 0.0], 0) == pytest.approx(0.5)

    def test_single_action_full_degree(self):
        agent = AthenaAgent(1)
        assert agent._degree_fraction([0.3], 0) == 1.0


class TestStorage:
    def test_storage_matches_table4(self):
        """Table 4: QVStore 2KB + two 0.5KB Bloom filters ~ 3KB total."""
        agent = AthenaAgent(4)
        kib = agent.storage_kib()
        assert 2.9 <= kib <= 3.1

    def test_paper_config_epsilon_zero(self):
        agent = AthenaAgent(4, PAPER_CONFIG)
        assert agent.config.epsilon == 0.0
        # Must still be able to run (optimistic init + tie-breaking).
        for _ in range(10):
            d = end_epoch(agent, telemetry())
            assert 0 <= d.action_index < 4
