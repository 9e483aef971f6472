"""Prefetcher interface.

Each prefetcher is attached to one cache level (``"l1d"`` or ``"l2c"``) and
observes the demand accesses that look up that level, exactly as in the
paper's methodology (§6.4: "IPCP and Berti ... are trained using all memory
requests looking up the L1D.  Pythia, SPP+PPF, MLOP, and SMS operate at L2C
and are trained using all memory requests looking up the L2C").

A prefetcher returns candidate cacheline addresses from :meth:`observe`.
Coordination policies control it through two knobs:

* ``enabled`` — gate all prefetch generation (Athena's coarse action), and
* ``degree_fraction`` — Athena's Q-value-driven aggressiveness control
  (Algorithm 1) scales the number of candidates actually issued between 1
  and ``max_degree``.
"""

from __future__ import annotations

import abc
from typing import List


class Prefetcher(abc.ABC):
    """Base class for all hardware prefetchers."""

    #: cache level the prefetcher trains on and fills into.
    level: str = "l2c"
    #: dmax in Algorithm 1: prefetches per demand trigger at full throttle.
    max_degree: int = 4

    def __init__(self) -> None:
        self.enabled = True
        self.degree_fraction = 1.0

    @property
    def name(self) -> str:
        return type(self).__name__

    # -- coordination hooks --------------------------------------------------

    def set_degree_fraction(self, fraction: float) -> None:
        """Scale aggressiveness; clamped to [0, 1]."""
        self.degree_fraction = min(1.0, max(0.0, fraction))

    @property
    def effective_degree(self) -> int:
        """Current prefetch degree (at least 1 while enabled)."""
        if not self.enabled:
            return 0
        return max(1, int(self.degree_fraction * self.max_degree))

    # -- main entry point ------------------------------------------------------

    def observe(self, pc: int, line_addr: int, hit: bool) -> List[int]:
        """Train on a demand access and return prefetch candidates.

        Training happens regardless of the ``enabled`` gate (the hardware
        tables keep learning while throttled — this matches HPAC/Athena
        semantics where a re-enabled prefetcher is immediately warm), but
        candidate generation is suppressed while disabled.
        """
        candidates = self._train_and_predict(pc, line_addr, hit)
        if not self.enabled:
            return []
        # Inline of the effective_degree property (hot path) — keep the
        # clamping rule in lockstep with it.
        degree = int(self.degree_fraction * self.max_degree)
        return candidates[: degree if degree > 1 else 1]

    @abc.abstractmethod
    def _train_and_predict(self, pc: int, line_addr: int, hit: bool) -> List[int]:
        """Update internal state; return ranked candidate line addresses."""

    # -- feedback (optional) -----------------------------------------------------

    def on_prefetch_useful(self, line_addr: int) -> None:
        """Called when a demand hits a line this prefetcher brought in."""

    def on_prefetch_filled(self, line_addr: int, went_offchip: bool) -> None:
        """Called when an issued prefetch completes its fill."""

    # -- accounting ----------------------------------------------------------

    @abc.abstractmethod
    def storage_bits(self) -> int:
        """Hardware budget of the prefetcher's tables (Table 8 audit)."""

    def storage_kib(self) -> float:
        return self.storage_bits() / 8192.0
