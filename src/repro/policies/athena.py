"""Athena as a coordination policy (the paper's primary contribution).

Wraps :class:`~repro.core.agent.AthenaAgent` behind the
:class:`~repro.policies.base.CoordinationPolicy` interface.  On attach it
gives the hierarchy a feature tracker unless it has one (features are
measured from the events the hardware would see, and every Athena
riding one run shares the tracker) and builds the discrete action
space: four actions for one prefetcher + OCP, eight for two
prefetchers + OCP, and the OCP-less variants for the prefetcher-only
management study (paper §7.6).  Each epoch the agent decides on the
features the tracker froze when the run's measured region closed the
epoch.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.agent import AthenaAgent
from ..core.config import AthenaConfig
from ..core.features import FeatureTracker
from ..sim.stats import EpochTelemetry
from .base import CoordinationAction, CoordinationPolicy, enumerate_actions


class AthenaPolicy(CoordinationPolicy):
    """Epoch-granularity RL coordination of prefetchers and OCP."""

    def __init__(self, config: Optional[AthenaConfig] = None) -> None:
        super().__init__()
        self.config = config if config is not None else AthenaConfig()
        self.agent: Optional[AthenaAgent] = None
        self.actions: Tuple[CoordinationAction, ...] = ()

    def attach(self, hierarchy) -> None:
        super().attach(hierarchy)
        self.actions = enumerate_actions(
            self.num_prefetchers, with_ocp=self.has_ocp
        )
        self.agent = AthenaAgent(num_actions=len(self.actions),
                                 config=self.config)
        if hierarchy.tracker is None:
            hierarchy.tracker = FeatureTracker()

    def decide(self, telemetry: EpochTelemetry) -> CoordinationAction:
        if self.agent is None:
            raise RuntimeError("AthenaPolicy.decide() before attach()")
        decision = self.agent.end_epoch(telemetry,
                                        self.hierarchy.tracker.features)
        base = self.actions[decision.action_index]
        prefetching_selected = any(base.prefetchers_enabled)
        degree = decision.degree_fraction if prefetching_selected else 1.0
        # Algorithm 1 can drive the degree to zero; the enable bit already
        # encodes "off", so a selected prefetcher floors at minimal degree.
        if prefetching_selected:
            degree = max(degree, 1.0 / 8.0)
        return CoordinationAction(
            prefetchers_enabled=base.prefetchers_enabled,
            ocp_enabled=base.ocp_enabled,
            degree_fraction=degree,
        )

    # -- reporting -----------------------------------------------------------------

    def storage_kib(self) -> float:
        if self.agent is None:
            return AthenaAgent(4, self.config).storage_kib()
        return self.agent.storage_kib()
