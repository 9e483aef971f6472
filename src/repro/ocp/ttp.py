"""TTP — tag-tracking-based off-chip predictor (Jalili & Erez, HPCA 2022).

TTP mirrors the tags of the on-chip cache hierarchy in a dedicated
metadata structure: a load is predicted off-chip exactly when its line's
tag is absent from the mirror.  The hierarchy feeds fills and evictions to
the predictor via :meth:`on_fill` / :meth:`on_eviction`, so the mirror
tracks residency without probing the caches.

The real TTP needs a metadata budget on the order of the L2 tag array
(~1.5 MB, paper Table 8) — this is the mechanism's main cost and why the
paper treats it as the "expensive but near-oracle" OCP.  A bounded mirror
(LRU over tags) models the finite budget; with the default capacity it
covers the whole simulated hierarchy, matching the paper's configuration.
"""

from __future__ import annotations

from collections import OrderedDict

from .base import OffChipPredictor


class TtpPredictor(OffChipPredictor):
    """Tag-mirror off-chip predictor."""

    def __init__(self, capacity_lines: int = 1 << 16) -> None:
        super().__init__()
        if capacity_lines <= 0:
            raise ValueError("capacity_lines must be positive")
        self.capacity_lines = capacity_lines
        self._tags: "OrderedDict[int, None]" = OrderedDict()

    def predict(self, pc: int, line_addr: int, byte_offset: int = 0,
                key=None) -> bool:
        present = line_addr in self._tags
        if present:
            self._tags.move_to_end(line_addr)
        return not present and self.enabled

    def train(self, pc: int, line_addr: int, went_offchip: bool,
              byte_offset: int = 0, key=None) -> None:
        # TTP has no learned state: residency updates arrive via fill and
        # eviction notifications.  Nothing to train.
        return

    def on_fill(self, line_addr: int) -> None:
        self._tags[line_addr] = None
        self._tags.move_to_end(line_addr)
        if len(self._tags) > self.capacity_lines:
            self._tags.popitem(last=False)

    def on_eviction(self, line_addr: int) -> None:
        self._tags.pop(line_addr, None)

    def resident(self, line_addr: int) -> bool:
        """Presence probe without prediction-side effects (tests)."""
        return line_addr in self._tags

    def storage_bits(self) -> int:
        return self.capacity_lines * 24  # ~24-bit tags per tracked line
