"""Statistics plumbing for the simulator.

Two layers of counters exist:

* :class:`SimStats` — cumulative, exact counters for the whole simulation
  (used for reporting, IPC, the StaticBest oracle, and Figures 20a/20b).
* :class:`EpochTelemetry` — the per-epoch snapshot handed to coordination
  policies.  This mirrors the information Athena's hardware observes during
  one epoch (paper §4.1/§4.3): feature numerators/denominators plus the
  reward-constituent metrics of Table 2.

A policy answers each epoch's telemetry with a :class:`CoordinationAction`;
it lives here, next to what it answers, so a stored run's history decodes
without importing any policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Tuple


@dataclass(slots=True)
class SimStats:
    """Cumulative, exact simulation counters."""

    instructions: int = 0
    cycles: float = 0.0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    mispredicted_branches: int = 0

    l1d_hits: int = 0
    l1d_misses: int = 0
    l2c_hits: int = 0
    l2c_misses: int = 0
    llc_hits: int = 0
    llc_misses: int = 0
    llc_miss_latency_sum: float = 0.0

    dram_demand_requests: int = 0
    dram_prefetch_requests: int = 0
    dram_ocp_requests: int = 0
    dram_writeback_requests: int = 0

    prefetches_issued: int = 0
    prefetches_useful: int = 0
    prefetch_fills_offchip: int = 0
    #: Always 0: nothing writes it (docs/architecture.md, "Simulator
    #: approximations"); ``offchip_fill_inaccuracy`` derives the quantity.
    prefetch_fills_offchip_useless: int = 0
    prefetches_useful_offchip: int = 0
    prefetch_fills_offchip_l1d: int = 0
    prefetch_fills_offchip_l2c: int = 0
    prefetches_useful_offchip_l1d: int = 0
    prefetches_useful_offchip_l2c: int = 0
    pollution_misses: int = 0

    ocp_predictions: int = 0
    ocp_correct: int = 0
    ocp_saved_cycles: float = 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def dram_requests(self) -> int:
        return (
            self.dram_demand_requests
            + self.dram_prefetch_requests
            + self.dram_ocp_requests
            + self.dram_writeback_requests
        )

    @property
    def llc_mpki(self) -> float:
        if not self.instructions:
            return 0.0
        return 1000.0 * self.llc_misses / self.instructions

    @property
    def avg_llc_miss_latency(self) -> float:
        if not self.llc_misses:
            return 0.0
        return self.llc_miss_latency_sum / self.llc_misses

    @property
    def prefetch_accuracy(self) -> float:
        if not self.prefetches_issued:
            return 0.0
        return self.prefetches_useful / self.prefetches_issued

    @property
    def offchip_fill_inaccuracy(self) -> float:
        """Fraction of off-chip prefetch fills never demanded (Figure 3)."""
        if not self.prefetch_fills_offchip:
            return 0.0
        useless = self.prefetch_fills_offchip - self.prefetches_useful_offchip
        return max(0.0, useless / self.prefetch_fills_offchip)

    def offchip_fill_inaccuracy_at(self, level: str) -> float:
        """Per-level Figure 3 metric: fraction of off-chip fills into
        ``level`` that were never demanded *during residency at that
        level* — the paper's exact definition of an inaccurate fill."""
        if level == "l1d":
            fills = self.prefetch_fills_offchip_l1d
            useful = self.prefetches_useful_offchip_l1d
        elif level == "l2c":
            fills = self.prefetch_fills_offchip_l2c
            useful = self.prefetches_useful_offchip_l2c
        else:
            raise ValueError(f"no per-level tracking for {level!r}")
        if not fills:
            return 0.0
        return max(0.0, (fills - useful) / fills)

    @property
    def ocp_accuracy(self) -> float:
        if not self.ocp_predictions:
            return 0.0
        return self.ocp_correct / self.ocp_predictions

    def snapshot(self) -> "SimStats":
        return SimStats(**{f.name: getattr(self, f.name) for f in fields(self)})

    def delta_from(self, earlier: "SimStats") -> "SimStats":
        """Counters accumulated since ``earlier`` (an older snapshot)."""
        return SimStats(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )


@dataclass
class EpochTelemetry:
    """Per-epoch observation handed to a coordination policy.

    Feature values follow the measurement definitions of paper Table 1; the
    reward-constituent metrics follow Table 2.
    """

    epoch_index: int = 0
    instructions: int = 0
    cycles: float = 0.0
    loads: int = 0
    mispredicted_branches: int = 0
    llc_misses: int = 0
    llc_miss_latency_sum: float = 0.0

    prefetcher_accuracy: float = 0.0
    ocp_accuracy: float = 0.0
    bandwidth_usage: float = 0.0
    cache_pollution: float = 0.0
    prefetch_bandwidth_share: float = 0.0
    ocp_bandwidth_share: float = 0.0
    demand_bandwidth_share: float = 0.0

    prefetches_issued: int = 0
    ocp_predictions: int = 0
    dram_requests: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


@dataclass(frozen=True)
class CoordinationAction:
    """One coordination decision, applied for the next epoch."""

    prefetchers_enabled: Tuple[bool, ...]
    ocp_enabled: bool
    degree_fraction: float = 1.0

    def describe(self) -> str:
        pf = "".join("P" if on else "-" for on in self.prefetchers_enabled)
        ocp = "O" if self.ocp_enabled else "-"
        return f"<{pf}|{ocp}|d={self.degree_fraction:.2f}>"


#: The seven candidate features of paper Table 1, in paper order.
CANDIDATE_FEATURES = (
    "prefetcher_accuracy",
    "ocp_accuracy",
    "bandwidth_usage",
    "cache_pollution",
    "prefetch_bandwidth",
    "ocp_bandwidth",
    "demand_bandwidth",
)

#: The four features selected by the paper's automated DSE (Table 3).
SELECTED_FEATURES = (
    "prefetcher_accuracy",
    "ocp_accuracy",
    "bandwidth_usage",
    "cache_pollution",
)
