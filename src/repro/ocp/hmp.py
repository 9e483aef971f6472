"""HMP — hit-miss predictor (Yoaz+, ISCA 1999).

HMP adapts hybrid branch prediction to the load hit/miss problem: three
component predictors — *local* (per-PC history), *gshare* (global history
xor PC) and *gskew* (three skewed gshare-like tables, majority voted) —
each predict whether a load misses, and a per-PC chooser picks which
component to trust.  We predict "off-chip" instead of "L1 miss", exactly
how the Athena/Hermes papers repurpose HMP as an OCP.

Storage: 11 KB (Table 8) across the component tables below.
"""

from __future__ import annotations

from .base import OffChipPredictor

_LOCAL_TABLE = 2048
_LOCAL_HISTORY_BITS = 8
_PATTERN_TABLE = 4096
_GSHARE_TABLE = 4096
_GSKEW_TABLE = 2048
_CHOOSER_TABLE = 1024
_COUNTER_MAX = 3
_TAKEN = 2  # counter >= 2 predicts off-chip


def _saturate(value: int, step: int) -> int:
    return max(0, min(_COUNTER_MAX, value + step))


class HmpPredictor(OffChipPredictor):
    """Hybrid local/gshare/gskew off-chip predictor."""

    def __init__(self) -> None:
        super().__init__()
        self._local_history = [0] * _LOCAL_TABLE
        self._local_pattern = [1] * _PATTERN_TABLE
        self._gshare = [1] * _GSHARE_TABLE
        self._gskew = [[1] * _GSKEW_TABLE for _ in range(3)]
        self._chooser = [1] * _CHOOSER_TABLE  # 0/1: local.., 2/3: global..
        self._global_history = 0

    # -- component indices ----------------------------------------------------

    @staticmethod
    def _pc_index(pc: int, size: int) -> int:
        return (pc >> 2) % size

    def _local_components(self, pc: int, byte_offset: int = 0):
        li = ((pc >> 2) ^ (byte_offset >> 3)) % _LOCAL_TABLE
        history = self._local_history[li]
        pi = ((pc >> 2) ^ (history << 3)) % _PATTERN_TABLE
        return li, pi

    def _gshare_index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._global_history) % _GSHARE_TABLE

    def _gskew_indices(self, pc: int):
        base = (pc >> 2) ^ self._global_history
        return (
            base % _GSKEW_TABLE,
            (base * 0x27D4EB2F >> 7) % _GSKEW_TABLE,
            (base * 0x165667B1 >> 11) % _GSKEW_TABLE,
        )

    # -- predictions ------------------------------------------------------------

    def _component_votes(self, pc: int, byte_offset: int = 0):
        _, pi = self._local_components(pc, byte_offset)
        local_vote = self._local_pattern[pi] >= _TAKEN
        gshare_vote = self._gshare[self._gshare_index(pc)] >= _TAKEN
        skew_votes = [
            self._gskew[t][i] >= _TAKEN
            for t, i in enumerate(self._gskew_indices(pc))
        ]
        gskew_vote = sum(skew_votes) >= 2
        return local_vote, gshare_vote, gskew_vote

    def predict(self, pc: int, line_addr: int, byte_offset: int = 0,
                key=None) -> bool:
        if not self.enabled:
            return False
        local_vote, gshare_vote, gskew_vote = self._component_votes(
            pc, byte_offset
        )
        chooser = self._chooser[self._pc_index(pc, _CHOOSER_TABLE)]
        if chooser < _TAKEN:
            return local_vote
        # Global side: majority of gshare and gskew, biased by gskew.
        return gskew_vote if gshare_vote != gskew_vote else gshare_vote

    def train(self, pc: int, line_addr: int, went_offchip: bool,
              byte_offset: int = 0, key=None) -> None:
        local_vote, gshare_vote, gskew_vote = self._component_votes(
            pc, byte_offset
        )
        global_vote = gskew_vote if gshare_vote != gskew_vote else gshare_vote
        step = 1 if went_offchip else -1

        li, pi = self._local_components(pc, byte_offset)
        self._local_pattern[pi] = _saturate(self._local_pattern[pi], step)
        self._local_history[li] = (
            (self._local_history[li] << 1) | int(went_offchip)
        ) & ((1 << _LOCAL_HISTORY_BITS) - 1)

        gi = self._gshare_index(pc)
        self._gshare[gi] = _saturate(self._gshare[gi], step)
        for t, i in enumerate(self._gskew_indices(pc)):
            self._gskew[t][i] = _saturate(self._gskew[t][i], step)

        ci = self._pc_index(pc, _CHOOSER_TABLE)
        local_correct = local_vote == went_offchip
        global_correct = global_vote == went_offchip
        if local_correct != global_correct:
            self._chooser[ci] = _saturate(
                self._chooser[ci], 1 if global_correct else -1
            )

        self._global_history = (
            (self._global_history << 1) | int(went_offchip)
        ) & 0xFFF

    def storage_bits(self) -> int:
        return (
            _LOCAL_TABLE * _LOCAL_HISTORY_BITS
            + _PATTERN_TABLE * 2
            + _GSHARE_TABLE * 2
            + 3 * _GSKEW_TABLE * 2
            + _CHOOSER_TABLE * 2
        )
