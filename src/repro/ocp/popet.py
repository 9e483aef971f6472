"""POPET — perceptron-based off-chip predictor (Hermes; Bera+, MICRO 2022).

POPET predicts whether a load will miss the entire on-chip cache hierarchy
using a *hashed perceptron* over five program features.  Each feature
indexes its own weight table; the prediction is positive when the summed
weights exceed an activation threshold.  Training nudges the contributing
weights toward the resolved outcome whenever the prediction was wrong or
the confidence margin was small (perceptron-with-margin update).

We use the five features of the MICRO'22 configuration: PC, PC xor
byte-offset-in-line, PC xor line-offset-in-page, cacheline address, and
the page address, each hashed into a 1K-entry table of 5-bit weights
(4 KB total, Table 8).  The byte-offset feature is load-bearing: it
separates the first touch of a line (which misses) from subsequent
same-line element accesses (which hit) under the same PC.

All five indices depend only on the load's trace row, so
:meth:`PopetPredictor.block_keys` hashes them for a whole trace block at
once in numpy, and :meth:`~PopetPredictor.predict` and
:meth:`~PopetPredictor.train` only read and update the five weights a
row's key names.
"""

from __future__ import annotations

import numpy as np

from ..sim.params import LINE_SHIFT
from .base import OffChipPredictor

_TABLE_SIZE = 1024
_NUM_FEATURES = 5
_WEIGHT_MAX = 15
_WEIGHT_MIN = -16
_ACTIVATION_THRESHOLD = 2
_TRAINING_MARGIN = 8
#: training stops once the score is this far past the threshold on the
#: side of the outcome (perceptron-with-margin)
_CONFIDENT_OFFCHIP = _ACTIVATION_THRESHOLD + _TRAINING_MARGIN
_CONFIDENT_ONCHIP = _ACTIVATION_THRESHOLD - _TRAINING_MARGIN

_PAGE_SHIFT = 6  # lines per page

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)


def _index(values: np.ndarray) -> list:
    """Each feature value's table index: a golden-ratio multiply in
    wrapping uint64, its high bits folded down, masked to the table."""
    v = values.view(_U64) * _GOLDEN
    return ((v ^ (v >> _U64(31))) & _U64(_TABLE_SIZE - 1)).tolist()


def _keys(pcs: np.ndarray, lines: np.ndarray, offsets: np.ndarray) -> list:
    """The five table indices of each row of int64 columns, as tuples.

    The right shifts run in int64, so they are arithmetic like Python's
    on negative values (addresses >= 2**63 in external traces); the left
    shifts run in uint64, where they wrap, which the hash cannot tell
    apart from Python's unbounded ints since it reads only the low 64
    bits of its operand.
    """
    ip = pcs >> 2
    uip = ip.view(_U64)
    return list(zip(
        _index(ip),
        _index((uip << _U64(7)) ^ offsets.view(_U64)),
        _index((uip << _U64(6)) ^ (lines & 63).view(_U64)),
        _index(lines),
        _index(lines >> _PAGE_SHIFT),
    ))


class PopetPredictor(OffChipPredictor):
    """Hashed-perceptron off-chip predictor.

    :meth:`predict` and :meth:`train` each read the weights a row's key
    names, so no state carries from one call to the other; a call
    without a key hashes its one row through the same kernel.
    """

    def __init__(self) -> None:
        super().__init__()
        self._weights = [[0] * _TABLE_SIZE for _ in range(_NUM_FEATURES)]

    def block_keys(self, pcs: np.ndarray, addrs: np.ndarray) -> list:
        return _keys(pcs, addrs >> LINE_SHIFT,
                     addrs & ((1 << LINE_SHIFT) - 1))

    @staticmethod
    def _row_key(pc: int, line_addr: int, byte_offset: int) -> tuple:
        return _keys(np.array([pc], np.int64),
                     np.array([line_addr], np.int64),
                     np.array([byte_offset], np.int64))[0]

    def predict(self, pc: int, line_addr: int, byte_offset: int = 0,
                key=None) -> bool:
        if not self.enabled:
            return False
        if key is None:
            key = self._row_key(pc, line_addr, byte_offset)
        i0, i1, i2, i3, i4 = key
        w0, w1, w2, w3, w4 = self._weights
        return (w0[i0] + w1[i1] + w2[i2] + w3[i3] + w4[i4]
                >= _ACTIVATION_THRESHOLD)

    def train(self, pc: int, line_addr: int, went_offchip: bool,
              byte_offset: int = 0, key=None) -> None:
        if key is None:
            key = self._row_key(pc, line_addr, byte_offset)
        i0, i1, i2, i3, i4 = key
        w0, w1, w2, w3, w4 = self._weights
        score = w0[i0] + w1[i1] + w2[i2] + w3[i3] + w4[i4]
        # Nudge every contributing weight toward the outcome unless the
        # prediction was right with margin to spare.
        if went_offchip:
            if score > _CONFIDENT_OFFCHIP:
                return
            if w0[i0] < _WEIGHT_MAX:
                w0[i0] += 1
            if w1[i1] < _WEIGHT_MAX:
                w1[i1] += 1
            if w2[i2] < _WEIGHT_MAX:
                w2[i2] += 1
            if w3[i3] < _WEIGHT_MAX:
                w3[i3] += 1
            if w4[i4] < _WEIGHT_MAX:
                w4[i4] += 1
        else:
            if score < _CONFIDENT_ONCHIP:
                return
            if w0[i0] > _WEIGHT_MIN:
                w0[i0] -= 1
            if w1[i1] > _WEIGHT_MIN:
                w1[i1] -= 1
            if w2[i2] > _WEIGHT_MIN:
                w2[i2] -= 1
            if w3[i3] > _WEIGHT_MIN:
                w3[i3] -= 1
            if w4[i4] > _WEIGHT_MIN:
                w4[i4] -= 1

    def storage_bits(self) -> int:
        return _NUM_FEATURES * _TABLE_SIZE * 5  # 5-bit weights
