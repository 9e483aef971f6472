"""Set-associative cache model with its LRU and SHiP replacement state.

The cache is a *functional* model: it tracks which lines are resident, their
prefetch bits (for accuracy accounting), dirty bits (for writeback traffic)
and, under SHiP, reuse bits (read only by its SHCT training; the Figure 3
"inaccurate off-chip prefetch fill" statistic is derived from counters by
``SimStats.offchip_fill_inaccuracy``).  Timing is handled analytically by
the hierarchy / core model; the cache itself only reports hits and
evictions, and counts neither (the hierarchy's ``SimStats`` does).

Storage is struct-of-arrays: one flat parallel array per line attribute
(line address, ``None`` when the slot is invalid; dirty; prefetched;
from-DRAM; ready time; under SHiP also the reuse bit), indexed by
``set_index * ways + way``.  :meth:`lookup_slot` and :meth:`fill_fast`
are allocation-free: they return slot integers (or a per-cache scratch
:class:`EvictedLine` reused across fills) and callers read line attributes
straight out of the arrays.

Replacement is part of the cache, selected by ``CacheParams.replacement``:

* ``lru`` (L1D/L2C): a clock and one stamp per slot; the victim is the
  first slot of the set with the smallest stamp.
* ``ship`` (LLC, paper Table 5): SHiP-PC [Wu+, MICRO'11] over 2-bit RRIP,
  the configuration ChampSim ships.  Per-set ``bytearray`` RRPV rows, one
  PC signature and one reuse bit per slot and a Signature History
  Counter Table (SHCT) of saturating counters that learns, per
  signature, whether the lines it inserts are re-referenced.  Prefetches and lines from "no-reuse"
  signatures are inserted at distant RRPV, everything else at
  intermediate; a hit promotes to RRPV 0.

Only the chosen policy's state is allocated.  The L1 lookup inlined in
``CacheHierarchy.load`` is the one other reader of the LRU state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .params import CacheParams

#: SHiP: the distant re-reference value (2-bit RRPV counters).
SHIP_RRPV_MAX = 3
#: SHiP: saturation value of each 3-bit SHCT counter.
SHIP_SHCT_MAX = (1 << 3) - 1
#: SHiP: number of SHCT entries (PC signatures).
SHIP_SHCT_SIZE = 16384


@dataclass
class EvictedLine:
    """Information about a line displaced by a fill."""

    line_addr: int
    dirty: bool


class Cache:
    """One cache level (L1D, L2C or LLC)."""

    def __init__(self, params: CacheParams) -> None:
        if params.num_sets <= 0:
            raise ValueError(f"{params.name}: non-positive set count")
        if params.num_sets & (params.num_sets - 1):
            raise ValueError(
                f"{params.name}: set count {params.num_sets} must be a power "
                f"of two (size/ways/line_size mismatch)"
            )
        replacement = params.replacement.lower()
        if replacement not in ("lru", "ship"):
            raise ValueError(
                f"unknown replacement policy {params.replacement!r}"
            )
        self.params = params
        self.num_sets = params.num_sets
        self.ways = params.ways
        self._set_mask = self.num_sets - 1
        total = self.num_sets * self.ways
        # Struct-of-arrays line storage, indexed by set_index*ways + way.
        #: the resident line address, ``None`` for an invalid slot
        #: (external traces carry negative line addresses).
        self._line: list = [None] * total
        self._dirty = bytearray(total)
        self._prefetched = bytearray(total)
        self._from_dram = bytearray(total)
        #: time the line's data actually arrives (in-flight fills; a demand
        #: hit on a line still in flight waits until this time — MSHR merge).
        self._ready = [0.0] * total
        #: line_addr -> slot index of every resident line: the inverse of
        #: ``_line``, which turns the per-way scan into one O(1) lookup.
        self._slot_of: dict = {}
        self._slot_get = self._slot_of.get  # rebound in __setstate__
        #: resident lines per set; a full set skips the invalid-way scan.
        self._set_lines = bytearray(self.num_sets)
        #: True for LRU, False for SHiP.
        self._lru = replacement == "lru"
        if self._lru:
            self._clock = 0
            self._stamps = [0] * total
        else:
            self._rrpv = [
                bytearray([SHIP_RRPV_MAX] * self.ways)
                for _ in range(self.num_sets)
            ]
            #: reuse bit per slot, read by the SHCT training on eviction.
            self._reused = bytearray(total)
            self._sig = [0] * total
            self._shct = [1] * SHIP_SHCT_SIZE
        self._evicted_scratch = EvictedLine(0, False)

    # -- copy/pickle -------------------------------------------------------

    def __getstate__(self) -> dict:
        # ``_slot_get`` is a bound method of a *builtin* (``dict.get``),
        # which copy/pickle treat as atomic: a deep-copied cache would
        # keep consulting the ORIGINAL ``_slot_of`` while mutating its
        # own, silently corrupting residency.  Drop it and rebind.
        state = self.__dict__.copy()
        del state["_slot_get"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._slot_get = self._slot_of.get

    # -- lookups ----------------------------------------------------------

    def lookup_slot(self, line_addr: int, *, is_write: bool = False) -> int:
        """Demand lookup; returns the hit slot or -1 (allocation-free).

        A miss changes nothing.  On a hit the replacement state is
        updated (and, under SHiP, the reuse bit set); the caller
        reads/clears line attributes directly from the arrays (e.g.
        ``cache._prefetched[slot]``).
        """
        slot = self._slot_get(line_addr, -1)
        if slot < 0:
            return -1
        if is_write:
            self._dirty[slot] = 1
        if self._lru:
            self._clock += 1
            self._stamps[slot] = self._clock
        else:
            self._reused[slot] = 1
            set_index = line_addr & self._set_mask
            self._rrpv[set_index][slot - set_index * self.ways] = 0
        return slot

    def probe(self, line_addr: int) -> bool:
        """Presence check with no state side effects (used by prefetch/OCP)."""
        return line_addr in self._slot_of

    # -- fills -------------------------------------------------------------

    def fill_fast(
        self,
        line_addr: int,
        pc: int = 0,
        is_prefetch: bool = False,
        dirty: bool = False,
        from_dram: bool = False,
        ready_time: float = 0.0,
    ) -> Optional[EvictedLine]:
        """Insert ``line_addr``; returns the evicted victim or ``None``.

        The returned :class:`EvictedLine` is a per-cache scratch object
        reused by the next fill — consume it before filling this cache
        again (the hierarchy does).
        """
        slot_of = self._slot_of
        slot = self._slot_get(line_addr, -1)
        if slot >= 0:
            # Already present (e.g. prefetch raced a demand): merge bits.
            if dirty:
                self._dirty[slot] = 1
            if ready_time < self._ready[slot]:
                self._ready[slot] = ready_time
            return None

        ways = self.ways
        set_index = line_addr & self._set_mask
        base = set_index * ways
        line_of = self._line
        lru = self._lru
        evicted = None
        if self._set_lines[set_index] == ways:
            if lru:
                # First slot with the minimum stamp.
                stamps = self._stamps
                victim = base
                best_stamp = stamps[base]
                for slot in range(base + 1, base + ways):
                    stamp = stamps[slot]
                    if stamp < best_stamp:
                        best_stamp = stamp
                        victim = slot
            else:
                # RRIP: first way at distant RRPV, aging the set until one
                # is (2-bit counters get there within SHIP_RRPV_MAX rounds).
                rrpvs = self._rrpv[set_index]
                rrpv_max = SHIP_RRPV_MAX
                victim = -1
                while victim < 0:
                    for way in range(ways):
                        if rrpvs[way] >= rrpv_max:
                            victim = base + way
                            break
                    else:
                        for way in range(ways):
                            rrpvs[way] += 1
            if not lru:
                # SHCT training: reward reused signatures, punish dead ones.
                sig = self._sig[victim]
                count = self._shct[sig]
                if self._reused[victim]:
                    if count < SHIP_SHCT_MAX:
                        self._shct[sig] = count + 1
                elif count > 0:
                    self._shct[sig] = count - 1
            old_line = line_of[victim]
            del slot_of[old_line]
            evicted = self._evicted_scratch
            evicted.line_addr = old_line
            evicted.dirty = bool(self._dirty[victim])
        else:
            victim = base
            while line_of[victim] is not None:
                victim += 1
            self._set_lines[set_index] += 1

        line_of[victim] = line_addr
        slot_of[line_addr] = victim
        self._dirty[victim] = 1 if dirty else 0
        self._prefetched[victim] = 1 if is_prefetch else 0
        self._from_dram[victim] = 1 if from_dram else 0
        self._ready[victim] = ready_time
        if lru:
            self._clock += 1
            self._stamps[victim] = self._clock
        else:
            # SHiP insertion: signature, then distant or intermediate RRPV.
            self._reused[victim] = 0
            sig = (pc ^ (pc >> 14) ^ (pc >> 28)) % SHIP_SHCT_SIZE
            self._sig[victim] = sig
            if is_prefetch or self._shct[sig] <= 0:
                self._rrpv[set_index][victim - base] = SHIP_RRPV_MAX - 1
            else:
                self._rrpv[set_index][victim - base] = 1
        return evicted

    def invalidate(self, line_addr: int) -> bool:
        """Remove a line if present (tests and diagnostics)."""
        slot = self._slot_of.pop(line_addr, -1)
        if slot < 0:
            return False
        self._line[slot] = None
        self._set_lines[line_addr & self._set_mask] -= 1
        return True

    # -- introspection ------------------------------------------------------

    def occupancy(self) -> int:
        """Number of resident lines."""
        return len(self._slot_of)

    def resident_lines(self):
        """Yield all resident line addresses in slot order (diagnostics
        and tests)."""
        return (line for line in self._line if line is not None)
