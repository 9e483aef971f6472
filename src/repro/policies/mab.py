"""MAB — Micro-Armed Bandit (Gerogiannis & Torrellas, MICRO 2023), adapted
to coordinate an OCP with prefetchers (paper §6.2.3).

MAB treats each (prefetchers, OCP) on/off combination as one *arm* of a
multi-armed bandit — four arms with one prefetcher, eight with two — and
selects arms with the Discounted Upper Confidence Bound (DUCB) rule.  The
reward is derived from the system's IPC, and the discounting lets the
bandit track workload phase changes.  Crucially (and this is the paper's
criticism), MAB is *state-agnostic*: it never looks at accuracy,
bandwidth, or pollution features.
"""

from __future__ import annotations

import math
from typing import List

from ..sim.stats import EpochTelemetry
from .base import CoordinationAction, CoordinationPolicy, enumerate_actions


class MabPolicy(CoordinationPolicy):
    """DUCB bandit over the coordination arms."""

    def __init__(
        self,
        discount: float = 0.98,
        exploration_coefficient: float = 0.5,
    ) -> None:
        super().__init__()
        if not 0.0 < discount <= 1.0:
            raise ValueError("discount must be in (0, 1]")
        self.discount = discount
        self.exploration_coefficient = exploration_coefficient
        self.arms: tuple = ()
        self._counts: List[float] = []
        self._rewards: List[float] = []
        self._last_arm: int = 0
        self._reference_ipc: float = 0.0

    def attach(self, hierarchy) -> None:
        super().attach(hierarchy)
        self.arms = enumerate_actions(self.num_prefetchers, with_ocp=self.has_ocp)
        self._counts = [0.0] * len(self.arms)
        self._rewards = [0.0] * len(self.arms)
        self._last_arm = len(self.arms) - 1  # start with everything enabled

    # -- reward: normalized IPC of the epoch ------------------------------------

    def _epoch_reward(self, telemetry: EpochTelemetry) -> float:
        ipc = telemetry.ipc
        if ipc <= 0.0:
            return 0.0
        if self._reference_ipc <= 0.0:
            self._reference_ipc = ipc
            return 0.5
        # Exponentially tracked reference keeps rewards in [0, ~1].
        self._reference_ipc = 0.95 * self._reference_ipc + 0.05 * ipc
        return min(1.0, 0.5 * ipc / self._reference_ipc)

    def decide(self, telemetry: EpochTelemetry) -> CoordinationAction:
        reward = self._epoch_reward(telemetry)

        # Discount all arms, then credit the arm that ran last epoch.
        for i in range(len(self.arms)):
            self._counts[i] *= self.discount
            self._rewards[i] *= self.discount
        self._counts[self._last_arm] += 1.0
        self._rewards[self._last_arm] += reward

        total = sum(self._counts)
        log_total = math.log(max(math.e, total))
        best_arm = 0
        best_score = -math.inf
        for i in range(len(self.arms)):
            if self._counts[i] < 1e-9:
                score = math.inf  # force initial exploration of every arm
            else:
                mean = self._rewards[i] / self._counts[i]
                bonus = self.exploration_coefficient * math.sqrt(
                    log_total / self._counts[i]
                )
                score = mean + bonus
            if score > best_score:
                best_score = score
                best_arm = i

        self._last_arm = best_arm
        return self.arms[best_arm]

    def storage_bits(self) -> int:
        """Paper Table 8 lists MAB at 0.1 KB: per-arm statistics."""
        return len(self.arms or (None,) * 4) * 2 * 32
