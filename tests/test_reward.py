"""Tests for the composite reward framework (paper §4.3, Table 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RewardWeights
from repro.core.reward import CompositeReward
from repro.sim.stats import EpochTelemetry


def epoch(cycles=1000.0, loads=60, mispred=5, llc_misses=20,
          llc_lat_sum=4000.0, instructions=200):
    return EpochTelemetry(
        instructions=instructions,
        cycles=cycles,
        loads=loads,
        mispredicted_branches=mispred,
        llc_misses=llc_misses,
        llc_miss_latency_sum=llc_lat_sum,
    )


class TestCompositeReward:
    def test_first_epoch_reward_is_zero(self):
        reward = CompositeReward()
        assert reward.compute(epoch()) == 0.0

    def test_fewer_cycles_is_positive(self):
        reward = CompositeReward()
        reward.compute(epoch(cycles=1000.0))
        assert reward.compute(epoch(cycles=800.0)) > 0.0

    def test_more_cycles_is_negative(self):
        reward = CompositeReward()
        reward.compute(epoch(cycles=1000.0))
        assert reward.compute(epoch(cycles=1300.0)) < 0.0

    def test_phase_change_is_compensated(self):
        """If cycles rise *because* loads rose, the uncorrelated component
        cancels the penalty — the core idea of the composite reward."""
        reward = CompositeReward(
            RewardWeights(cycles=1.0, loads=1.0, mispredicted_branches=0.0)
        )
        reward.compute(epoch(cycles=1000.0, loads=60))
        # 30% more cycles and 30% more loads: net reward ~ 0.
        value = reward.compute(epoch(cycles=1300.0, loads=78))
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_without_uncorrelated_phase_change_penalised(self):
        reward = CompositeReward(
            RewardWeights(cycles=1.0, loads=1.0, mispredicted_branches=0.0),
            use_uncorrelated=False,
        )
        reward.compute(epoch(cycles=1000.0, loads=60))
        assert reward.compute(epoch(cycles=1300.0, loads=78)) < 0.0

    def test_branch_mispredictions_feed_uncorrelated(self):
        reward = CompositeReward(
            RewardWeights(cycles=0.0, loads=0.0, mispredicted_branches=1.0)
        )
        reward.compute(epoch(mispred=10))
        # Fewer mispredictions => uncorrelated "improvement" subtracted.
        assert reward.compute(epoch(mispred=5)) < 0.0

    def test_llc_miss_weight_used_when_nonzero(self):
        weights = RewardWeights(cycles=0.0, llc_misses=1.0, loads=0.0,
                                mispredicted_branches=0.0)
        reward = CompositeReward(weights)
        reward.compute(epoch(llc_misses=40))
        assert reward.compute(epoch(llc_misses=20)) > 0.0

    def test_llc_latency_weight_used_when_nonzero(self):
        weights = RewardWeights(cycles=0.0, llc_miss_latency=1.0, loads=0.0,
                                mispredicted_branches=0.0)
        reward = CompositeReward(weights)
        reward.compute(epoch(llc_misses=20, llc_lat_sum=8000.0))
        assert reward.compute(epoch(llc_misses=20, llc_lat_sum=4000.0)) > 0.0

    def test_paper_default_weights(self):
        """Table 3: lambda_cycle=1.6, LLC terms zero, load=0.6, MBr=1.0."""
        w = RewardWeights()
        assert w.cycles == pytest.approx(1.6)
        assert w.llc_misses == 0.0
        assert w.llc_miss_latency == 0.0
        assert w.loads == pytest.approx(0.6)
        assert w.mispredicted_branches == pytest.approx(1.0)
        assert set(w.correlated()) == {"cycles", "llc_misses",
                                       "llc_miss_latency"}
        assert set(w.uncorrelated()) == {"loads", "mispredicted_branches"}

    def test_reset_forgets_history(self):
        reward = CompositeReward()
        reward.compute(epoch(cycles=1000.0))
        reward.reset()
        assert reward.compute(epoch(cycles=100.0)) == 0.0

    @given(
        st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
        st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_reward_bounded(self, c1, c2):
        reward = CompositeReward()
        reward.compute(epoch(cycles=c1))
        value = reward.compute(epoch(cycles=c2))
        w = RewardWeights()
        bound = w.cycles + w.loads + w.mispredicted_branches + 1e-9
        assert -bound <= value <= bound

