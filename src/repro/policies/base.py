"""Coordination-policy interface shared by Athena, TLP, HPAC, MAB and Naive.

A coordination policy is invoked once per execution epoch with the epoch's
telemetry (:class:`~repro.sim.stats.EpochTelemetry`) and returns a
:class:`CoordinationAction`: which prefetchers to enable, whether to enable
the OCP, and the prefetcher aggressiveness for the next epoch.  This is
exactly the action space of paper §4.2 generalised to N prefetchers.

Policies that operate per *request* rather than per epoch (TLP's prefetch
filter) additionally hook the hierarchy via :meth:`attach`.
"""

from __future__ import annotations

import abc
import itertools
from typing import Optional

from ..sim.stats import CoordinationAction, EpochTelemetry


def enumerate_actions(num_prefetchers: int, with_ocp: bool = True):
    """The discrete coordination action space.

    With one prefetcher and an OCP this is the paper's four actions
    (none / prefetcher-only / OCP-only / both); with two prefetchers it is
    the eight-action space used for CD3/CD4 (and by MAB's eight arms).
    """
    pf_combos = list(itertools.product((False, True), repeat=num_prefetchers))
    ocp_options = (False, True) if with_ocp else (False,)
    return tuple(
        CoordinationAction(prefetchers_enabled=combo, ocp_enabled=ocp)
        for ocp in ocp_options
        for combo in pf_combos
    )


class CoordinationPolicy(abc.ABC):
    """Epoch-granularity coordination decision maker."""

    def __init__(self) -> None:
        self.num_prefetchers = 1
        self.has_ocp = True
        self.hierarchy = None

    def attach(self, hierarchy) -> None:
        """Bind to a hierarchy before simulation starts.

        The default implementation records the shape of the action space
        and keeps a reference to the hierarchy (policies that inspect
        cache state, like TLP's fill-source probe, need it).  Subclasses
        may give the hierarchy its feature tracker, which every policy
        riding one run shares (Athena), or install a prefetch filter
        (TLP).  The run, not the policy, records the actions decided
        (:attr:`~repro.sim.region.SimulationResult.actions`).
        """
        self.hierarchy = hierarchy
        self.num_prefetchers = len(hierarchy.prefetchers)
        self.has_ocp = hierarchy.ocp is not None

    @abc.abstractmethod
    def decide(self, telemetry: EpochTelemetry) -> CoordinationAction:
        """Choose the action to apply during the next epoch."""

    def all_on_action(self) -> CoordinationAction:
        return CoordinationAction(
            prefetchers_enabled=(True,) * self.num_prefetchers,
            ocp_enabled=self.has_ocp,
            degree_fraction=1.0,
        )


class NaivePolicy(CoordinationPolicy):
    """The paper's Naive combination: everything always on, full degree."""

    def decide(self, telemetry: EpochTelemetry) -> CoordinationAction:
        return self.all_on_action()


class FixedPolicy(CoordinationPolicy):
    """Apply one fixed action forever (used by the StaticBest oracle)."""

    def __init__(self, action: Optional[CoordinationAction] = None) -> None:
        super().__init__()
        self._configured = action

    def attach(self, hierarchy) -> None:
        super().attach(hierarchy)
        if self._configured is None:
            self._configured = self.all_on_action()

    def decide(self, telemetry: EpochTelemetry) -> CoordinationAction:
        return self._configured
