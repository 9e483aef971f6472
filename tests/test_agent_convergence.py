"""Behavioural tests of the Athena agent on synthetic telemetry streams.

These bypass the simulator entirely: we feed the agent hand-crafted
:class:`EpochTelemetry` sequences whose reward structure is known, and
assert the learned behaviour — convergence to the rewarded action,
exploration coverage, hysteresis, and Algorithm 1's degree control.
"""

import pytest

from repro.core.agent import AthenaAgent
from repro.core.config import AthenaConfig
from repro.core.features import FeatureTracker
from repro.sim.stats import EpochTelemetry


def telemetry(cycles, loads=60, mispred=2, **kwargs):
    defaults = dict(
        instructions=600,
        cycles=float(cycles),
        loads=loads,
        mispredicted_branches=mispred,
        llc_misses=40,
        llc_miss_latency_sum=4_000.0,
        prefetcher_accuracy=0.5,
        ocp_accuracy=0.5,
        bandwidth_usage=0.5,
        cache_pollution=0.1,
        prefetches_issued=30,
        ocp_predictions=20,
        dram_requests=50,
    )
    defaults.update(kwargs)
    return EpochTelemetry(epoch_index=0, **defaults)


def end_epoch(agent, t):
    """End an epoch on telemetry ``t``, with the features an idle
    tracker freezes for it."""
    return agent.end_epoch(t, FeatureTracker().epoch_features(t))


def drive(agent, cycles_for_action, epochs=120, base=1_000.0):
    """Feed the agent epochs whose cycle count depends on its last action.

    ``cycles_for_action`` maps action index -> epoch cycles; the epoch
    that *follows* a decision reflects that decision's cost, exactly like
    the simulator's epoch loop.
    """
    decision = end_epoch(agent, telemetry(base))
    history = [decision.action_index]
    for _ in range(epochs - 1):
        cycles = cycles_for_action[decision.action_index]
        decision = end_epoch(agent, telemetry(cycles))
        history.append(decision.action_index)
    return history


class TestForcedExploration:
    def test_round_robin_covers_all_actions(self):
        agent = AthenaAgent(4, AthenaConfig(explore_rounds=2))
        history = drive(agent, {0: 900, 1: 1000, 2: 1100, 3: 1000},
                        epochs=8)
        assert set(history[:4]) == {0, 1, 2, 3}
        assert set(history[4:8]) == {0, 1, 2, 3}

    def test_rotation_changes_transition_order(self):
        agent = AthenaAgent(4, AthenaConfig(explore_rounds=2))
        history = drive(agent, {0: 1000, 1: 1000, 2: 1000, 3: 1000},
                        epochs=8)
        assert history[:4] != history[4:8]

    def test_capped_at_eight_epochs(self):
        agent = AthenaAgent(8, AthenaConfig(explore_rounds=2))
        history = drive(agent, {a: 1000 for a in range(8)}, epochs=8)
        # One full rotation, not two.
        assert sorted(history) == list(range(8))

    def test_explore_rounds_zero_is_greedy_from_start(self):
        agent = AthenaAgent(4, AthenaConfig(explore_rounds=0, epsilon=0.0))
        decision = end_epoch(agent, telemetry(1000))
        assert agent._epochs_seen == 1
        assert 0 <= decision.action_index < 4


class TestConvergence:
    @pytest.mark.parametrize("good_action", [0, 1, 2, 3])
    def test_settles_on_cheapest_action(self, good_action):
        """The action that makes epochs faster must dominate the tail."""
        cycles = {a: 1_500.0 for a in range(4)}
        cycles[good_action] = 700.0
        agent = AthenaAgent(4, AthenaConfig(epsilon=0.0))
        history = drive(agent, cycles, epochs=150)
        tail = history[-40:]
        share = tail.count(good_action) / len(tail)
        assert share > 0.8, (good_action, history)

    def test_avoids_catastrophic_action(self):
        cycles = {0: 1_000.0, 1: 1_000.0, 2: 1_000.0, 3: 4_000.0}
        agent = AthenaAgent(4, AthenaConfig(epsilon=0.0))
        history = drive(agent, cycles, epochs=150)
        tail = history[-60:]
        assert tail.count(3) <= 2

    def test_adapts_to_mid_stream_change(self):
        """When the best action flips, the agent must follow."""
        agent = AthenaAgent(2, AthenaConfig(epsilon=0.02))
        cycles_phase1 = {0: 700.0, 1: 1_500.0}
        cycles_phase2 = {0: 1_500.0, 1: 700.0}
        history1 = drive(agent, cycles_phase1, epochs=80)
        # Continue the same agent into the flipped regime.
        decision_action = history1[-1]
        history2 = []
        for _ in range(120):
            cycles = cycles_phase2[decision_action]
            decision = end_epoch(agent, telemetry(cycles))
            decision_action = decision.action_index
            history2.append(decision_action)
        assert history2[-30:].count(1) > 15


class TestHysteresis:
    def test_margin_blocks_marginal_switch(self):
        config = AthenaConfig(explore_rounds=0, epsilon=0.0,
                              switch_margin=0.5)
        agent = AthenaAgent(2, config)
        end_epoch(agent, telemetry(1000))
        incumbent = agent._prev_action
        # Nudge the rival action's Q just above the incumbent's.
        state = agent._state_from(
            FeatureTracker().epoch_features(telemetry(1000))
        )
        rival = 1 - incumbent
        agent.qvstore.update(state, rival, 0.2)
        decision = end_epoch(agent, telemetry(1000))
        assert decision.action_index == incumbent

    def test_large_gap_overrides_margin(self):
        config = AthenaConfig(explore_rounds=0, epsilon=0.0,
                              switch_margin=0.1)
        agent = AthenaAgent(2, config)
        end_epoch(agent, telemetry(1000))
        incumbent = agent._prev_action
        state = agent._state_from(
            FeatureTracker().epoch_features(telemetry(1000))
        )
        rival = 1 - incumbent
        agent.qvstore.update(state, rival, 3.0)
        decision = end_epoch(agent, telemetry(1000))
        assert decision.action_index == rival


class TestDegreeControl:
    """Algorithm 1: degree scales with the Q-value confidence gap."""

    def agent_with_q(self, q_values):
        agent = AthenaAgent(4, AthenaConfig())
        return agent, list(q_values)

    def test_zero_or_negative_gap_gives_zero(self):
        agent, q = self.agent_with_q([0.0, 0.0, 0.0, 0.0])
        assert agent._degree_fraction(q, 0) == 0.0
        agent, q = self.agent_with_q([-0.5, 0.1, 0.1, 0.1])
        assert agent._degree_fraction(q, 0) == 0.0

    def test_gap_above_tau_saturates(self):
        agent, q = self.agent_with_q([1.0, 0.0, 0.0, 0.0])
        assert agent._degree_fraction(q, 0) == 1.0

    def test_fraction_proportional_below_tau(self):
        tau = AthenaConfig().tau
        gap = tau / 2
        agent, q = self.agent_with_q([gap, 0.0, 0.0, 0.0])
        assert agent._degree_fraction(q, 0) == pytest.approx(0.5, rel=1e-6)

    def test_monotone_in_gap(self):
        agent = AthenaAgent(4, AthenaConfig())
        fractions = [
            agent._degree_fraction([g, 0.0, 0.0, 0.0], 0)
            for g in (0.01, 0.05, 0.1, 0.2, 0.5)
        ]
        assert fractions == sorted(fractions)


class TestRewardAccounting:
    def test_cumulative_reward_tracks_improvements(self):
        agent = AthenaAgent(2, AthenaConfig(explore_rounds=0))
        end_epoch(agent, telemetry(2_000))
        end_epoch(agent, telemetry(1_000))  # big improvement
        assert agent.cumulative_reward > 0

    def test_first_epoch_reward_is_zero(self):
        agent = AthenaAgent(2, AthenaConfig())
        end_epoch(agent, telemetry(1_000))
        assert agent.cumulative_reward == 0.0

    def test_storage_audit_matches_table4_class(self):
        agent = AthenaAgent(4, AthenaConfig())
        assert 2.5 < agent.storage_kib() < 3.5  # paper Table 4: 3 KB
