"""The scalar reference of POPET's five-feature hash, and a POPET on it.

Production hashes a whole trace block's features at once in numpy
(:meth:`repro.ocp.popet.PopetPredictor.block_keys`).  These are the
original one-access-at-a-time Python loops it reproduces bit for bit;
they live on the test side only, as the oracle the kernel and the keyed
predictor are checked against (``tests/test_popet_keys.py``).
"""

from __future__ import annotations

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15

_THRESHOLD = 2
_MARGIN = 8


def feature_index(value: int) -> int:
    """One feature's 1K-entry table index (Python ints, unbounded)."""
    v = (value * _GOLDEN) & _MASK64
    return (v ^ (v >> 31)) & 1023


def scalar_key(pc: int, line_addr: int, byte_offset: int) -> tuple:
    """The five table indices of one load: PC, PC xor byte offset, PC
    xor line-in-page, line address and page address."""
    ip = pc >> 2
    return (
        feature_index(ip),
        feature_index((ip << 7) ^ byte_offset),
        feature_index((ip << 6) ^ (line_addr & 63)),
        feature_index(line_addr),
        feature_index(line_addr >> 6),
    )


def scalar_addr_key(pc: int, addr: int) -> tuple:
    """:func:`scalar_key` of the load at byte address ``addr``."""
    return scalar_key(pc, addr >> 6, addr & 63)


class OraclePopet:
    """POPET rehashing every call with :func:`scalar_key` and updating
    with the textbook perceptron-with-margin rule."""

    def __init__(self) -> None:
        self.enabled = True
        self.weights = [[0] * 1024 for _ in range(5)]

    def _score(self, key: tuple) -> int:
        return sum(table[i] for table, i in zip(self.weights, key))

    def predict(self, pc: int, line_addr: int, byte_offset: int = 0) -> bool:
        key = scalar_key(pc, line_addr, byte_offset)
        return self.enabled and self._score(key) >= _THRESHOLD

    def train(self, pc: int, line_addr: int, went_offchip: bool,
              byte_offset: int = 0) -> None:
        key = scalar_key(pc, line_addr, byte_offset)
        score = self._score(key)
        predicted = score >= _THRESHOLD
        confident = abs(score - _THRESHOLD) > _MARGIN
        if predicted == went_offchip and confident:
            return
        step = 1 if went_offchip else -1
        for table, i in zip(self.weights, key):
            table[i] = max(-16, min(15, table[i] + step))
