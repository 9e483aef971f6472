"""TLP — Two Level Perceptron (Jamet+, HPCA 2024).

TLP couples off-chip prediction with *adaptive prefetch filtering at the
L1D*: its first-level perceptron predicts whether a load goes off-chip;
its second level filters L1D prefetch requests that are predicted to be
filled from off-chip main memory, based on the empirical observation that
such fills are usually inaccurate.

Two properties matter for the paper's comparison (§2.1.3, §7.1):

* TLP acts per *request*, not per epoch — both mechanisms stay enabled and
  only individual L1D prefetches are dropped; and
* TLP has **no control over prefetchers beyond the L1D**, so an L2C
  prefetcher (e.g. Pythia in CD4) runs unthrottled.

The paper reports TLP's first-level fill-source prediction as highly
accurate, so the filter models it exactly: an on-chip presence probe of
the prefetch address (see :meth:`TlpPolicy._filter`).  No perceptron is
simulated; :meth:`TlpPolicy.storage_bits` still reports the hardware's
budget for the storage comparison.
"""

from __future__ import annotations

from ..sim.stats import EpochTelemetry
from .base import CoordinationAction, CoordinationPolicy


class TlpPolicy(CoordinationPolicy):
    """OCP-hinted L1D prefetch filtering; everything else always on."""

    def __init__(self) -> None:
        super().__init__()
        self.filtered_prefetches = 0
        self.allowed_prefetches = 0

    # -- hierarchy hooks ------------------------------------------------------------

    def attach(self, hierarchy) -> None:
        super().attach(hierarchy)
        hierarchy.prefetch_filter = self._filter

    def _filter(self, pc: int, line_addr: int, level: str) -> bool:
        """Return False to drop the prefetch (L1D only, per the design).

        TLP filters L1D prefetches *predicted to be filled from off-chip
        main memory* (the empirical rule behind the design: such fills are
        usually inaccurate).  The first-level perceptron's fill-source
        prediction is highly accurate in the paper, so we model it as an
        on-chip presence probe of the prefetch address: an L2C or LLC hit
        means the fill is on-chip and the prefetch is kept; anything else
        would be filled from DRAM and is dropped.

        This is exactly what makes TLP shine on prefetcher-adverse
        workloads (off-chip junk prefetches are dropped) and lose on
        prefetcher-friendly ones (useful first-touch stream prefetches
        are *also* off-chip fills, and are dropped too — paper §7.1.2).
        """
        if level != "l1d":
            return True
        hierarchy = self.hierarchy
        on_chip = (
            hierarchy is not None
            and (hierarchy.l2c.probe(line_addr)
                 or hierarchy.llc.probe(line_addr))
        )
        if not on_chip:
            self.filtered_prefetches += 1
            return False
        self.allowed_prefetches += 1
        return True

    # -- epoch decision: static (both mechanisms stay on) --------------------------

    def decide(self, telemetry: EpochTelemetry) -> CoordinationAction:
        return self.all_on_action()

    def storage_bits(self) -> int:
        """Paper Table 8 lists TLP at 6.98 KB (57,180 bits), for both of
        its perceptron levels: the off-chip predictor and the L1D
        prefetch filter.  Neither table is simulated here (see the
        module docstring), so this is the paper's budget, not a count
        of modelled tables."""
        return 57_180
