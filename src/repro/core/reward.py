"""Athena's composite reward framework (paper §4.3).

The reward at epoch *t* is::

    R_t = R_corr_t - R_uncorr_t

where the *correlated* reward is a weighted sum of normalized improvements
in metrics Athena's actions influence (cycles, LLC misses, LLC miss
latency), and the *uncorrelated* reward is the weighted sum of normalized
"improvements" in metrics driven by workload phase behaviour (retired
loads, mispredicted branches).  Subtracting the uncorrelated component
removes the phase-change signal that would otherwise be mis-attributed to
the agent's action: if the epoch got faster *because* it issued fewer
loads, the loads term cancels the cycles term.

Each constituent ``ΔM`` is the relative change between consecutive epochs,
oriented so that a *decrease* of the metric is positive ("improvement"),
and clamped to [-1, 1] for bounded rewards::

    ΔM_t = clamp((M_{t-1} - M_t) / max(M_{t-1}, floor), -1, 1)
"""

from __future__ import annotations

from typing import Optional

from ..sim.stats import EpochTelemetry
from .config import RewardWeights


def _normalized_improvement(prev: float, cur: float, floor: float = 1.0) -> float:
    denominator = max(abs(prev), floor)
    change = (prev - cur) / denominator
    return max(-1.0, min(1.0, change))


class CompositeReward:
    """Stateful reward computer fed consecutive epoch telemetries."""

    def __init__(
        self,
        weights: Optional[RewardWeights] = None,
        use_uncorrelated: bool = True,
    ) -> None:
        self.weights = weights if weights is not None else RewardWeights()
        self.use_uncorrelated = use_uncorrelated
        self._previous: Optional[EpochTelemetry] = None

    def reset(self) -> None:
        self._previous = None

    def correlated(self, prev: EpochTelemetry, cur: EpochTelemetry) -> float:
        w = self.weights
        reward = w.cycles * _normalized_improvement(prev.cycles, cur.cycles)
        if w.llc_misses:
            reward += w.llc_misses * _normalized_improvement(
                prev.llc_misses, cur.llc_misses
            )
        if w.llc_miss_latency:
            prev_lat = prev.llc_miss_latency_sum / max(1, prev.llc_misses)
            cur_lat = cur.llc_miss_latency_sum / max(1, cur.llc_misses)
            reward += w.llc_miss_latency * _normalized_improvement(
                prev_lat, cur_lat
            )
        return reward

    def uncorrelated(self, prev: EpochTelemetry, cur: EpochTelemetry) -> float:
        w = self.weights
        reward = w.loads * _normalized_improvement(prev.loads, cur.loads)
        reward += w.mispredicted_branches * _normalized_improvement(
            prev.mispredicted_branches, cur.mispredicted_branches
        )
        return reward

    def compute(self, telemetry: EpochTelemetry) -> float:
        """Reward for the epoch that just ended (0.0 for the first epoch)."""
        prev = self._previous
        self._previous = telemetry
        if prev is None:
            return 0.0
        reward = self.correlated(prev, telemetry)
        if self.use_uncorrelated:
            reward -= self.uncorrelated(prev, telemetry)
        return reward

