"""HPAC — Hierarchical Prefetcher Aggressiveness Control (Ebrahimi+,
MICRO 2009), adapted to also gate an OCP (paper §6.2.2).

HPAC compares per-epoch feedback metrics against *static thresholds* and
moves each prefetcher's aggressiveness level up or down one step (the
classic feedback-directed-prefetching rule set):

* accurate and bandwidth-available  -> throttle up
* inaccurate or polluting or bus-saturated -> throttle down

Aggressiveness levels map to prefetch-degree fractions; level 0 disables
the prefetcher.  The OCP adaptation follows the paper: a static accuracy
threshold gates the OCP on/off, with bandwidth headroom as a secondary
condition.  All thresholds are the grid-search-tuned values from the
tuning-workload DSE (see ``repro.experiments.dse``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.stats import EpochTelemetry
from .base import CoordinationAction, CoordinationPolicy


@dataclass(frozen=True)
class HpacThresholds:
    """Static thresholds (tuned offline; paper §6.2.2).

    ``up_hysteresis`` epochs of sustained accuracy are required before the
    aggressiveness level rises, while any negative trigger lowers it
    immediately; a disabled prefetcher is re-probed every
    ``reprobe_epochs``.  This asymmetry is the conservatism the paper
    attributes to HPAC ("conservative coordination decisions even when
    prefetching is beneficial").
    """

    accuracy_high: float = 0.55
    accuracy_low: float = 0.30
    bandwidth_high: float = 0.65
    bandwidth_critical: float = 0.90
    pollution_high: float = 0.10
    ocp_accuracy_min: float = 0.45
    up_hysteresis: int = 2
    reprobe_epochs: int = 8


_MAX_LEVEL = 4
_INITIAL_LEVEL = 2


class HpacPolicy(CoordinationPolicy):
    """Threshold-driven aggressiveness control + OCP gating."""

    def __init__(self, thresholds: HpacThresholds = HpacThresholds()) -> None:
        super().__init__()
        self.thresholds = thresholds
        self._levels: list = []
        self._up_streaks: list = []
        self._disabled_epochs: list = []
        self._ocp_on = True

    def attach(self, hierarchy) -> None:
        super().attach(hierarchy)
        self._levels = [_INITIAL_LEVEL] * self.num_prefetchers
        self._up_streaks = [0] * self.num_prefetchers
        self._disabled_epochs = [0] * self.num_prefetchers
        self._ocp_on = self.has_ocp

    def decide(self, telemetry: EpochTelemetry) -> CoordinationAction:
        t = self.thresholds
        accurate = telemetry.prefetcher_accuracy >= t.accuracy_high
        inaccurate = telemetry.prefetcher_accuracy < t.accuracy_low
        polluting = telemetry.cache_pollution >= t.pollution_high
        bus_busy = telemetry.bandwidth_usage >= t.bandwidth_high
        bus_critical = telemetry.bandwidth_usage >= t.bandwidth_critical

        for i in range(self.num_prefetchers):
            level = self._levels[i]
            if bus_critical or inaccurate or polluting:
                level -= 1
                self._up_streaks[i] = 0
            elif accurate and not bus_busy:
                self._up_streaks[i] += 1
                if self._up_streaks[i] >= t.up_hysteresis:
                    level += 1
                    self._up_streaks[i] = 0
            else:
                self._up_streaks[i] = 0
            level = max(0, min(_MAX_LEVEL, level))
            if level == 0:
                self._disabled_epochs[i] += 1
                if self._disabled_epochs[i] >= t.reprobe_epochs:
                    # Periodic re-probe: feedback-directed throttling must
                    # re-measure accuracy once the prefetcher is silent.
                    level = 1
                    self._disabled_epochs[i] = 0
            else:
                self._disabled_epochs[i] = 0
            self._levels[i] = level

        if self.has_ocp:
            ocp_accurate = telemetry.ocp_accuracy >= t.ocp_accuracy_min
            had_predictions = telemetry.ocp_predictions > 0
            if had_predictions:
                self._ocp_on = ocp_accurate and not bus_critical
            elif bus_critical:
                self._ocp_on = False
            else:
                self._ocp_on = True  # re-probe: no predictions last epoch

        max_level = max(self._levels) if self._levels else 0
        return CoordinationAction(
            prefetchers_enabled=tuple(level > 0 for level in self._levels),
            ocp_enabled=self.has_ocp and self._ocp_on,
            degree_fraction=max_level / _MAX_LEVEL if max_level else 1.0,
        )

    def storage_bits(self) -> int:
        """Paper Table 8 lists HPAC at 0.5 KB: counters + thresholds."""
        return 4096
