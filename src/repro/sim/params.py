"""Simulated system parameters (paper Table 5).

The paper models an Intel Golden Cove-like core: 6-wide fetch/issue/commit,
512-entry ROB, a three-level cache hierarchy (48KB L1D, 1.25MB L2C, 3MB/core
LLC), and DDR4 DRAM with 3.2 GB/s per-core bandwidth in the default
bandwidth-constrained configuration.

All latencies are expressed in core cycles at the 4 GHz nominal frequency,
matching the paper's published round-trip latencies (L1 4/5 cycles, L2 15
cycles, LLC 55 cycles, tRCD = tRP = tCAS = 12.5 ns = 50 cycles).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

CORE_FREQ_GHZ = 4.0
LINE_SIZE = 64
LINE_SHIFT = 6


@dataclass(frozen=True)
class CoreParams:
    """Out-of-order core model parameters (Table 5, "Core" row)."""

    width: int = 6
    rob_size: int = 512
    load_queue_size: int = 128
    store_queue_size: int = 72
    mispredict_penalty: int = 17


@dataclass(frozen=True)
class CacheParams:
    """One cache level.  ``latency`` is the round-trip lookup latency."""

    name: str
    size_bytes: int
    ways: int
    latency: int
    replacement: str = "lru"
    line_size: int = LINE_SIZE

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_size

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways


@dataclass(frozen=True)
class DramParams:
    """Banked DDR4 model with an explicit data-bus occupancy model.

    ``bandwidth_gbps`` is per-core main-memory bandwidth; at 4 GHz it maps to
    ``bytes_per_cycle = bandwidth_gbps / 4`` so the 3.2 GB/s default gives a
    64-byte line transfer time of 80 core cycles.
    """

    bandwidth_gbps: float = 3.2
    num_banks: int = 8
    row_buffer_bytes: int = 2048
    t_rcd: int = 50
    t_rp: int = 50
    t_cas: int = 50

    @property
    def bytes_per_cycle(self) -> float:
        return self.bandwidth_gbps / CORE_FREQ_GHZ

    @property
    def line_transfer_cycles(self) -> float:
        return LINE_SIZE / self.bytes_per_cycle

    @property
    def lines_per_row(self) -> int:
        return self.row_buffer_bytes // LINE_SIZE


@dataclass(frozen=True)
class SystemParams:
    """Full single-core system configuration."""

    core: CoreParams = field(default_factory=CoreParams)
    l1d: CacheParams = field(
        default_factory=lambda: CacheParams(
            name="L1D", size_bytes=48 * 1024, ways=12, latency=5
        )
    )
    l2c: CacheParams = field(
        default_factory=lambda: CacheParams(
            name="L2C", size_bytes=1280 * 1024, ways=20, latency=15
        )
    )
    llc: CacheParams = field(
        default_factory=lambda: CacheParams(
            name="LLC", size_bytes=3 * 1024 * 1024, ways=12, latency=55,
            replacement="ship",
        )
    )
    dram: DramParams = field(default_factory=DramParams)
    ocp_issue_latency: int = 6

    def with_bandwidth(self, bandwidth_gbps: float) -> "SystemParams":
        return replace(self, dram=replace(self.dram, bandwidth_gbps=bandwidth_gbps))

    def with_ocp_issue_latency(self, cycles: int) -> "SystemParams":
        return replace(self, ocp_issue_latency=cycles)


def default_system(bandwidth_gbps: float = 3.2) -> SystemParams:
    """The paper's default bandwidth-constrained single-core system."""
    return SystemParams().with_bandwidth(bandwidth_gbps)


#: Scaled-down system used by the fast test/benchmark configurations.  The
#: cache hierarchy keeps the same 3-level shape and relative sizing but is
#: shrunk ~16x so that the 10k-100k instruction synthetic traces exercise
#: capacity behaviour the way 500M-instruction traces exercise the real one
#: (set counts stay powers of two, as the cache indexing requires).
def scaled_system(bandwidth_gbps: float = 3.2) -> SystemParams:
    base = SystemParams()
    return SystemParams(
        core=base.core,
        l1d=replace(base.l1d, size_bytes=4 * 1024, ways=4),
        l2c=replace(base.l2c, size_bytes=64 * 1024, ways=8),
        llc=replace(base.llc, size_bytes=256 * 1024, ways=8),
        dram=replace(base.dram, bandwidth_gbps=bandwidth_gbps),
        ocp_issue_latency=base.ocp_issue_latency,
    )
