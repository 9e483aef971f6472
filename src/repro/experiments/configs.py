"""Experiment configurations: cache designs CD1-CD4 and hierarchy builders.

Paper Table 7::

    CD1  OCP + 1 L2C prefetcher            (default: POPET + Pythia)
    CD2  OCP + 1 L1D prefetcher            (default: POPET + IPCP)
    CD3  OCP + 2 L2C prefetchers           (default: POPET + SMS + Pythia)
    CD4  OCP + 1 L1D + 1 L2C prefetcher    (default: POPET + IPCP + Pythia)

Experiments run on the scaled system (docs/reproduction.md, "The scaled
system") with the paper's default 3.2 GB/s per-core bandwidth unless a sweep
overrides it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Tuple

from ..sim.params import SystemParams, scaled_system

if TYPE_CHECKING:  # imported where a hierarchy is built
    from ..sim.hierarchy import CacheHierarchy


@dataclass(frozen=True)
class CacheDesign:
    """One evaluated system configuration.

    The name is cosmetic: designs with the same mechanisms compare
    equal, as the engine requests that run them share a content key.
    """

    name: str = field(compare=False)
    prefetcher_names: Tuple[str, ...]
    ocp_name: Optional[str]
    bandwidth_gbps: float = 3.2
    ocp_issue_latency: int = 6

    # -- Table 7 presets -----------------------------------------------------

    @classmethod
    def cd1(cls, l2c: str = "pythia", ocp: Optional[str] = "popet",
            bandwidth_gbps: float = 3.2) -> "CacheDesign":
        return cls("CD1", (l2c,), ocp, bandwidth_gbps)

    @classmethod
    def cd2(cls, l1d: str = "ipcp", ocp: Optional[str] = "popet",
            bandwidth_gbps: float = 3.2) -> "CacheDesign":
        return cls("CD2", (l1d,), ocp, bandwidth_gbps)

    @classmethod
    def cd3(cls, l2c_a: str = "sms", l2c_b: str = "pythia",
            ocp: Optional[str] = "popet",
            bandwidth_gbps: float = 3.2) -> "CacheDesign":
        return cls("CD3", (l2c_a, l2c_b), ocp, bandwidth_gbps)

    @classmethod
    def cd4(cls, l1d: str = "ipcp", l2c: str = "pythia",
            ocp: Optional[str] = "popet",
            bandwidth_gbps: float = 3.2) -> "CacheDesign":
        return cls("CD4", (l1d, l2c), ocp, bandwidth_gbps)

    # -- variants ---------------------------------------------------------------

    def without_mechanisms(self) -> "CacheDesign":
        """The no-prefetching, no-OCP baseline of the same system."""
        return replace(self, name=f"{self.name}-baseline",
                       prefetcher_names=(), ocp_name=None)

    def only_ocp(self) -> "CacheDesign":
        return replace(self, name=f"{self.name}-ocp-only",
                       prefetcher_names=())

    def only_prefetchers(self) -> "CacheDesign":
        return replace(self, name=f"{self.name}-pf-only", ocp_name=None)

    def with_bandwidth(self, bandwidth_gbps: float) -> "CacheDesign":
        return replace(self, bandwidth_gbps=bandwidth_gbps)

    def with_ocp_issue_latency(self, cycles: int) -> "CacheDesign":
        return replace(self, ocp_issue_latency=cycles)

    def with_ocp(self, ocp: Optional[str]) -> "CacheDesign":
        return replace(self, ocp_name=ocp)

    def signature(self) -> tuple:
        """Hashable identity used by run caches."""
        return (
            self.prefetcher_names,
            self.ocp_name,
            self.bandwidth_gbps,
            self.ocp_issue_latency,
        )


def system_for(design: CacheDesign) -> SystemParams:
    params = scaled_system(bandwidth_gbps=design.bandwidth_gbps)
    return params.with_ocp_issue_latency(design.ocp_issue_latency)


def build_hierarchy(
    design: CacheDesign,
    params: Optional[SystemParams] = None,
    llc=None,
    dram=None,
) -> CacheHierarchy:
    """Instantiate a fresh hierarchy for one run of ``design``."""
    from ..ocp import make_ocp
    from ..prefetchers import make_prefetcher
    from ..sim.hierarchy import CacheHierarchy

    if params is None:
        params = system_for(design)
    prefetchers = [make_prefetcher(name) for name in design.prefetcher_names]
    ocp = make_ocp(design.ocp_name) if design.ocp_name else None
    return CacheHierarchy(
        params=params, prefetchers=prefetchers, ocp=ocp, llc=llc, dram=dram
    )
