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
"""

from __future__ import annotations

from .base import OffChipPredictor

_TABLE_SIZE = 1024
_NUM_FEATURES = 5
_WEIGHT_MAX = 15
_WEIGHT_MIN = -16
_ACTIVATION_THRESHOLD = 2
_TRAINING_MARGIN = 8

_PAGE_SHIFT = 6  # lines per page


class PopetPredictor(OffChipPredictor):
    """Hashed-perceptron off-chip predictor.

    The five hashes and the weight sum are fused into one allocation-free
    pass, and the score computed by :meth:`_predict` is remembered so the
    matching :meth:`train` call for the same load (weights unchanged in
    between) reuses it instead of rehashing.
    """

    def __init__(self) -> None:
        super().__init__()
        self._weights = [[0] * _TABLE_SIZE for _ in range(_NUM_FEATURES)]
        # (pc, line_addr, byte_offset) of the last scored access, or None.
        self._cached_pc = -1
        self._cached_line = -1
        self._cached_offset = -1
        self._cached_indices = (0, 0, 0, 0, 0)
        self._cached_score = 0
        # value -> table index memo for the (pure) feature hash.  All five
        # features share one hash function, so one memo serves them all;
        # repeated PCs/pages in loops hit it constantly.  Bounded by a
        # deterministic clear, so results never depend on its size.
        self._hash_memo: dict = {}

    def _score_and_cache(self, pc: int, line_addr: int,
                         byte_offset: int) -> int:
        """Fused hash + weight sum; caches the result for :meth:`train`.

        ``% _TABLE_SIZE`` is written ``& (_TABLE_SIZE - 1)`` (the table is
        a power of two and the hashes are non-negative, so the values are
        identical).
        """
        w0, w1, w2, w3, w4 = self._weights
        memo = self._hash_memo
        if len(memo) > 65536:
            memo.clear()
        mget = memo.get
        ip = pc >> 2
        i0 = mget(ip)
        if i0 is None:
            v = (ip * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            memo[ip] = i0 = (v ^ (v >> 31)) & 1023
        key = (ip << 7) ^ byte_offset
        i1 = mget(key)
        if i1 is None:
            v = (key * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            memo[key] = i1 = (v ^ (v >> 31)) & 1023
        key = (ip << 6) ^ (line_addr & 63)
        i2 = mget(key)
        if i2 is None:
            v = (key * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            memo[key] = i2 = (v ^ (v >> 31)) & 1023
        # The line-address feature is mostly unique (no memo value).
        v = (line_addr * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        i3 = (v ^ (v >> 31)) & 1023
        page = line_addr >> _PAGE_SHIFT
        i4 = mget(page)
        if i4 is None:
            v = (page * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            memo[page] = i4 = (v ^ (v >> 31)) & 1023
        score = w0[i0] + w1[i1] + w2[i2] + w3[i3] + w4[i4]
        self._cached_pc = pc
        self._cached_line = line_addr
        self._cached_offset = byte_offset
        self._cached_indices = (i0, i1, i2, i3, i4)
        self._cached_score = score
        return score

    def _score(self, pc: int, line_addr: int, byte_offset: int) -> int:
        return self._score_and_cache(pc, line_addr, byte_offset)

    def _predict(self, pc: int, line_addr: int, byte_offset: int) -> bool:
        return (
            self._score_and_cache(pc, line_addr, byte_offset)
            >= _ACTIVATION_THRESHOLD
        )

    def predict(self, pc: int, line_addr: int, byte_offset: int = 0) -> bool:
        """Fused override of :meth:`OffChipPredictor.predict` (same
        bookkeeping, one call fewer on the per-load path)."""
        self.predictions += 1
        if (self._score_and_cache(pc, line_addr, byte_offset)
                >= _ACTIVATION_THRESHOLD) and self.enabled:
            self.positive_predictions += 1
            return True
        return False

    def train(self, pc: int, line_addr: int, went_offchip: bool,
              byte_offset: int = 0) -> None:
        if (pc == self._cached_pc and line_addr == self._cached_line
                and byte_offset == self._cached_offset):
            # The hierarchy trains with the outcome of the access it just
            # asked a prediction for; weights cannot have changed between
            # the two calls, so the cached score is exact.
            score = self._cached_score
        else:
            score = self._score_and_cache(pc, line_addr, byte_offset)
        predicted = score >= _ACTIVATION_THRESHOLD
        confident = abs(score - _ACTIVATION_THRESHOLD) > _TRAINING_MARGIN
        if predicted == went_offchip and confident:
            return
        step = 1 if went_offchip else -1
        indices = self._cached_indices
        self._cached_pc = -1  # weights change: invalidate the cached score
        for f, i in enumerate(indices):
            w = self._weights[f][i] + step
            self._weights[f][i] = max(_WEIGHT_MIN, min(_WEIGHT_MAX, w))

    def storage_bits(self) -> int:
        return _NUM_FEATURES * _TABLE_SIZE * 5  # 5-bit weights
