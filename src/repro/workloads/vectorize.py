"""Decode machinery for the vectorized trace generators.

Every workload family is defined by a one-instruction-at-a-time loop
(``tests/scalar_oracle.py``) that interleaves pattern emission with
draws from a ``random.Random``; the number of Mersenne-Twister *words*
each draw consumes is data-dependent (``random()`` takes two words,
``randrange`` takes one word per rejection-sampling attempt, a filler
instruction takes two or four).  To reproduce the byte-exact instruction
stream without a per-instruction Python loop, the emitters of
:mod:`repro.workloads.generators`

1. peek a *window* of the upcoming word stream (:class:`WordWindow`,
   uncommitted) and precompute vectorized decode tables over every word
   offset: the ``random()`` double starting at each offset, the offset
   jump a filler instruction makes, and per-``randrange``-bound value /
   next-offset tables;
2. walk one cheap scalar *chain* per pattern round (not per instruction)
   through those tables to discover where each round's draws landed; and
3. materialize all instruction blocks with numpy gathers from the
   recorded offsets, committing exactly the words consumed.

Everything here is pinned by the golden trace-equivalence suite
(``tests/golden/trace_hashes.json``): a one-bit divergence from the
scalar loops anywhere fails loudly.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .rng import BulkRandom
from .trace import FLAG_BRANCH, FLAG_MISPRED

#: a filler instruction's branch probability — compared exactly, like
#: the reference loop's ``rng.random() < 0.15``.
BRANCH_P = 0.15

_RES53_SHIFT = np.uint64(67108864)        # 2**26
_FIVE = np.uint64(5)
_SIX = np.uint64(6)

#: distinct PC regions per pattern (mirrors ``generators._pc``).
PC_BASE = 0x400000
PC_BLOCK = 0x10000
PC_SLOT = 0x40


def pc_of(block: int, slot: int = 0) -> int:
    return PC_BASE + block * PC_BLOCK + slot * PC_SLOT


def _mantissas_from_pairs(words: np.ndarray) -> np.ndarray:
    """``rng.random()`` mantissas from consecutive *aligned* word pairs."""
    a = words[0::2] >> _FIVE
    b = words[1::2] >> _SIX
    return a * _RES53_SHIFT + b


def ithreshold(t: float) -> np.uint64:
    """``rng.random() < t`` as an integer-mantissa comparison bound.

    A ``random()`` value is exactly ``m / 2**53`` for the 53-bit integer
    ``m`` built from the two words, so ``m/2**53 < t  <=>  m < ceil(t *
    2**53)`` (``t * 2**53`` is an exact power-of-two scaling; when it is
    integral the ceiling leaves it alone and the strict compare matches).
    Comparing mantissas skips materializing a float array per window.
    """
    return np.uint64(math.ceil(t * 9007199254740992.0))


class WordWindow:
    """A peeked, uncommitted span of a :class:`BulkRandom` word stream.

    ``mant[o]`` is the 53-bit ``genrand_res53`` mantissa of the
    ``rng.random()`` draw whose two words start at offset ``o`` (any
    offset — draws are word-aligned, not pair-aligned); compare it with
    :func:`ithreshold` bounds, or grab a cached full-domain comparison
    from :meth:`below`.  The final entry is a poison value (``2**62``,
    never below any threshold) so clamped sentinel offsets decode
    deterministically.
    """

    def __init__(self, br: BulkRandom, words_hint: int) -> None:
        self.br = br
        self.size = 0
        self.words: np.ndarray = None
        self.mant: np.ndarray = None
        self.idx: np.ndarray = None  # cached arange, shared by tables
        self._below = {}
        self.ensure(words_hint)

    def ensure(self, count: int) -> bool:
        """Grow the window to at least ``count`` words; True if regrown."""
        if self.size >= count:
            return False
        size = max(int(count), self.size * 2, 4096)
        w = self.br.peek_words(size)
        self.words = w
        a = w >> _FIVE
        a *= _RES53_SHIFT
        a[:-1] += w[1:] >> _SIX
        a[size - 1] = np.uint64(1) << np.uint64(62)
        self.mant = a
        self.idx = np.arange(size, dtype=np.int32)
        self._below = {}
        self.size = size
        return True

    def below(self, t: float) -> np.ndarray:
        """Cached full-domain ``rng.random() < t`` mask."""
        mask = self._below.get(t)
        if mask is None:
            mask = self.mant < ithreshold(t)
            self._below[t] = mask
        return mask

    def grow(self) -> None:
        self.ensure(self.size * 2)


def clamped_step(win: WordWindow, step: int) -> np.ndarray:
    """``o -> min(o + step, sentinel)`` as an index array (int32)."""
    return np.minimum(win.idx + np.int32(step), np.int32(win.size - 2))


def filler_jump(win: WordWindow) -> np.ndarray:
    """``j[o]``: word offset after one filler instruction starting at ``o``.

    A filler instruction consumes one double (branch test) plus, for
    branches, a second (misprediction test).  Values are clamped to the
    ``size - 2`` sentinel so chain walks stay in bounds; any round that
    touches the sentinel region is redone on a larger window.
    """
    idx = win.idx
    j = np.where(win.below(BRANCH_P), idx + np.int32(4), idx + np.int32(2))
    np.clip(j, 0, win.size - 2, out=j)
    return j


def compose_jump(jump: np.ndarray, steps: int) -> np.ndarray:
    """``steps``-fold composition of an offset-jump table."""
    if steps <= 0:
        return np.arange(len(jump), dtype=np.int32)
    out = None
    power = jump
    while steps:
        if steps & 1:
            # May alias ``jump`` or an internal power; composed tables
            # are read-only by convention.
            out = power if out is None else power[out]
        steps >>= 1
        if steps:
            power = power[power]
    return out


class RandrangeTables:
    """Per-offset decode of ``rng.randrange(n)`` starting at each offset.

    ``after[o]`` is the offset of the first unconsumed word when the
    rejection loop begins at ``o`` (clamped to the sentinel like
    :func:`filler_jump`); :meth:`value_at` decodes the accepted values at
    the (sparse) offsets a round chain actually visited, avoiding a
    full-domain value gather.
    """

    __slots__ = ("_words", "_shift", "_nxt", "after", "_last")

    def __init__(self, win: WordWindow, n: int) -> None:
        n = int(n)
        if n.bit_length() > 31:  # registry bounds are tiny; keep int32
            raise NotImplementedError("randrange bounds beyond 31 bits")
        shift = 32 - n.bit_length()
        # ``(w >> shift) < n``  <=>  ``w < (n << shift)`` — one compare,
        # no full-domain candidate materialization.
        accept = win.words < np.uint32(n << shift)
        nxt = np.where(accept, win.idx, np.int32(win.size))
        rev = nxt[::-1].copy()
        np.minimum.accumulate(rev, out=rev)
        # keep the arithmetic on the contiguous reversed buffer; one
        # contiguous copy back beats per-pass reversed-view strides
        after_rev = np.minimum(rev + 1, np.int32(win.size - 2))
        self._words = win.words
        self._shift = np.uint64(shift)
        self._nxt = rev[::-1]  # view: only gathered sparsely
        self._last = np.int32(win.size - 1)
        self.after = after_rev[::-1].copy()

    def value_at(self, pos: np.ndarray) -> np.ndarray:
        """Accepted ``randrange`` values for loops starting at ``pos``."""
        hits = self._words[np.minimum(self._nxt[pos], self._last)]
        return (hits >> self._shift).astype(np.int64)


def randrange_tables(win: WordWindow, n: int) -> RandrangeTables:
    return RandrangeTables(win, n)


def filler_run_offsets(
    fjmp1: np.ndarray, starts: np.ndarray, count: int
) -> np.ndarray:
    """``(len(starts), count)`` word offsets of filler-run instructions."""
    out = np.empty((len(starts), count), dtype=np.int64)
    o = starts
    for j in range(count):
        out[:, j] = o
        o = fjmp1[o]
    return out


def filler_at(
    win: WordWindow,
    offsets: np.ndarray,
    pc_block: int,
    mispredict_rate: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(pcs, flags)`` of the filler instructions at the given offsets."""
    below_branch = win.below(BRANCH_P)
    is_branch = below_branch[offsets]
    mispred = is_branch & (win.below(mispredict_rate)[offsets + 2])
    pcs = np.where(is_branch, pc_of(pc_block, 9), pc_of(pc_block, 8))
    flags = np.where(is_branch, FLAG_BRANCH, 0).astype(np.uint8)
    flags[mispred] |= FLAG_MISPRED
    return pcs.astype(np.int64), flags


# ---------------------------------------------------------------------------
# standalone bulk filler (emitters whose only RNG use is the filler)
# ---------------------------------------------------------------------------

def _filler_starts(below: np.ndarray) -> np.ndarray:
    """Instruction-start mask over a doubles stream consumed only by
    filler instructions, given its branch-test mask
    (``double < BRANCH_P``).

    Position ``i`` is a *second* draw (a branch's misprediction test)
    iff the previous position was an instruction start whose double fell
    below :data:`BRANCH_P`; the recurrence ``second[i] = below[i-1] &
    ~second[i-1]`` resolves in closed form to "even offset within a
    maximal run of ``below[i-1]``", which vectorizes.
    """
    n = len(below)
    below_prev = np.empty(n, dtype=bool)
    below_prev[0] = False
    below_prev[1:] = below[:-1]
    run_start = below_prev.copy()
    run_start[1:] &= ~below_prev[:-1]
    idx = np.arange(n, dtype=np.int64)
    start_idx = np.where(run_start, idx, -1)
    np.maximum.accumulate(start_idx, out=start_idx)
    second = below_prev & (((idx - start_idx) & 1) == 0)
    return ~second


def bulk_filler(
    br: BulkRandom,
    count: int,
    pc_block: int,
    mispredict_rate: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` filler instructions as ``(pcs, addrs, flags)`` arrays.

    Consumes the wrapped word stream exactly as ``count`` filler
    instructions drawn one at a time would (valid whenever *only* filler
    draws sit between the current position and the last consumed
    instruction — filler is memoryless, so split calls equal one big
    call).
    """
    if count <= 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0, dtype=np.uint8)
    need = int(count * 1.18) + 16
    while True:
        m = _mantissas_from_pairs(br.peek_words(2 * need))
        below = m < ithreshold(BRANCH_P)
        starts = np.flatnonzero(_filler_starts(below))
        if len(starts) >= count and starts[count - 1] + 2 <= len(m):
            break
        need *= 2
    s = starts[:count]
    is_branch = below[s]
    mispred = is_branch & (m[s + 1] < ithreshold(mispredict_rate))
    pcs = np.where(
        is_branch, pc_of(pc_block, 9), pc_of(pc_block, 8)
    ).astype(np.int64)
    flags = np.where(is_branch, FLAG_BRANCH, 0).astype(np.uint8)
    flags[mispred] |= FLAG_MISPRED
    consumed_doubles = int(s[-1]) + 1 + int(is_branch[-1])
    br.advance_words(2 * consumed_doubles)
    return pcs, np.zeros(count, dtype=np.int64), flags
