"""The Athena SARSA agent (paper §4, §5).

One agent instance per core.  Every epoch the agent:

1. builds the state vector from the epoch's measured features, which the
   hierarchy's :class:`~repro.core.features.FeatureTracker` froze when
   the epoch closed (Figure 6 stage 1),
2. selects the next epoch's coordination action epsilon-greedily over the
   QVStore Q-values,
3. computes the composite reward for the epoch that just ended, and
4. applies the SARSA update (Equation 1) for the previous state-action
   pair using the newly selected action as the bootstrap.

Prefetcher aggressiveness is derived from the Q-values with the paper's
Algorithm 1 (Q-value-driven prefetch-degree control): the confidence ratio
``min(1, ΔQ / tau)`` scales the prefetch degree, where ``ΔQ`` is the gap
between the chosen action's Q-value and the mean of the alternatives.

The paper models a 50-cycle delayed QVStore update and shows performance
is insensitive to it (§5.4.2); the update here is applied at the epoch
boundary, which is equivalent under that insensitivity result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..sim.stats import EpochTelemetry
from .config import AthenaConfig
from .features import FeatureTracker, StateQuantizer
from .qvstore import QVStore
from .reward import CompositeReward


@dataclass
class AgentDecision:
    """One epoch's decision: which action index, at what aggressiveness."""

    action_index: int
    degree_fraction: float
    state: int
    q_values: List[float]


class AthenaAgent:
    """SARSA agent over the coordination action space."""

    def __init__(self, num_actions: int, config: Optional[AthenaConfig] = None) -> None:
        self.config = config if config is not None else AthenaConfig()
        cfg = self.config
        self.num_actions = num_actions
        self.qvstore = QVStore(
            num_actions=num_actions,
            num_planes=cfg.num_planes,
            rows_per_plane=cfg.rows_per_plane,
            q_init=cfg.q_init,
            q_clip=cfg.q_clip,
            q_value_bits=cfg.q_value_bits,
        )
        self.quantizer = StateQuantizer(cfg.features, cfg.feature_bins)
        self.reward = CompositeReward(
            cfg.reward_weights, use_uncorrelated=cfg.use_uncorrelated_reward
        )
        self._rng = random.Random(cfg.seed)
        self._prev_state: Optional[int] = None
        self._prev_action: Optional[int] = None
        self._epochs_seen = 0
        self.decisions: List[AgentDecision] = []
        self.cumulative_reward = 0.0

    # -- policy ------------------------------------------------------------------

    def _state_from(self, features: Dict[str, float]):
        if self.config.stateless:
            return 0
        return tuple(
            self.quantizer.plane_states(features, self.config.num_planes)
        )

    def _select_action(self, state: int, q_values: List[float]) -> int:
        # Cap the warm-start at eight epochs: scaled runs hide exactly the
        # warm-up fraction from measurement, and a two-prefetcher design's
        # eight-action space would otherwise push half its forced
        # exploration into the measured region.
        forced = min(self.config.explore_rounds * self.num_actions, 8)
        if self._epochs_seen < forced:
            # Round-robin warm-start: each pass visits the actions in a
            # rotated order so every action is sampled after a different
            # predecessor (the composite reward is a *transition* signal).
            rotation = self._epochs_seen // self.num_actions
            return (self._epochs_seen + rotation) % self.num_actions
        if self._rng.random() < self.config.epsilon:
            return self._rng.randrange(self.num_actions)
        best = max(q_values)
        # Switch hysteresis: keep the incumbent action on near-ties so the
        # policy does not dither between actions of equal learned value.
        prev = self._prev_action
        if prev is not None and q_values[prev] >= best - self.config.switch_margin:
            return prev
        # Random tie-break keeps epsilon=0 configurations from pinning to
        # action 0 before any learning signal arrives.
        candidates = [a for a, q in enumerate(q_values) if q == best]
        if len(candidates) == 1:
            return candidates[0]
        return self._rng.choice(candidates)

    def _degree_fraction(self, q_values: List[float], chosen: int) -> float:
        """Algorithm 1: Q-value-driven prefetcher aggressiveness control."""
        if self.num_actions < 2:
            return 1.0
        q_star = q_values[chosen]
        others = [q for a, q in enumerate(q_values) if a != chosen]
        avg_others = sum(others) / len(others)
        delta_q = q_star - avg_others
        if delta_q <= 0.0:
            return 0.0
        return min(1.0, delta_q / self.config.tau)

    # -- epoch boundary ------------------------------------------------------------

    def end_epoch(self, telemetry: EpochTelemetry,
                  features: Dict[str, float]) -> AgentDecision:
        """Process the epoch that just ended, given its telemetry and its
        frozen feature values; returns the next decision."""
        state = self._state_from(features)
        q_values = self.qvstore.q_values(state)
        action = self._select_action(state, q_values)

        reward = self.reward.compute(telemetry)
        self.cumulative_reward += reward
        if self._prev_state is not None and self._prev_action is not None:
            self._sarsa_update(
                self._prev_state, self._prev_action, reward, state, action
            )
            # Refresh the Q-values the degree decision sees post-update.
            q_values = self.qvstore.q_values(state)

        decision = AgentDecision(
            action_index=action,
            degree_fraction=self._degree_fraction(q_values, action),
            state=state,
            q_values=q_values,
        )
        self.decisions.append(decision)
        self._epochs_seen += 1
        self._prev_state = state
        self._prev_action = action
        return decision

    def _sarsa_update(
        self, state: int, action: int, reward: float, next_state: int,
        next_action: int,
    ) -> None:
        """Equation 1: Q(s,a) += alpha * [r + gamma * Q(s',a') - Q(s,a)]."""
        cfg = self.config
        current = self.qvstore.q_value(state, action)
        bootstrap = self.qvstore.q_value(next_state, next_action)
        delta = cfg.alpha * (reward + cfg.gamma * bootstrap - current)
        self.qvstore.update(state, action, delta)

    # -- accounting ---------------------------------------------------------------

    def storage_bits(self) -> int:
        """Table 4 audit: QVStore + accuracy tracker + pollution tracker."""
        return self.qvstore.storage_bits() + FeatureTracker.storage_bits()

    def storage_kib(self) -> float:
        return self.storage_bits() / 8192.0
