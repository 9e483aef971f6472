"""Three-level cache hierarchy with prefetchers and an off-chip predictor.

This module glues together the functional caches, the DRAM bandwidth model,
the prefetchers and the OCP into the demand-access path the simulator
drives.  It implements the mechanisms the paper's observations rest on:

* demand loads traverse L1D -> L2C -> LLC -> DRAM, accumulating round-trip
  latencies (Table 5);
* a positive OCP prediction launches a speculative DRAM fetch
  ``ocp_issue_latency`` cycles after the load is seen, removing the on-chip
  lookup serialisation from true off-chip misses (Hermes semantics) at the
  cost of wasted bandwidth on mispredictions;
* prefetchers observe the demands looking up their level and fill candidate
  lines, consuming DRAM bandwidth and potentially polluting the LLC;
* fills, evictions, pollution, prefetch usefulness and off-chip fill
  accuracy (Figure 3) are all tracked and exposed to coordination policies;
* the events Athena's state features are measured from reach the
  hierarchy's optional :class:`~repro.core.features.FeatureTracker`
  (``tracker``), which every coordination policy riding the hierarchy
  shares.

The demand path is allocation-free: cache lookups/fills return slot
indices / reused scratch objects (struct-of-arrays caches), the per-level
latencies are precomputed floats, tracker events are skipped without a
tracker, and :meth:`load` returns the load's latency as a float.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

import numpy as np

from ..ocp.base import OffChipPredictor
from ..prefetchers.base import Prefetcher
from .cache import Cache
from .dram import MainMemory
from .params import LINE_SHIFT, SystemParams
from .stats import SimStats

if TYPE_CHECKING:  # the memory model never imports Athena's core
    from ..core.features import FeatureTracker

#: Cap on remembered prefetch-evicted victims (models the finite hardware
#: pollution filter; also bounds memory in long runs).
_POLLUTION_WINDOW = 1 << 15

_LINE_MASK = (1 << LINE_SHIFT) - 1

PrefetchFilter = Callable[[int, int, str], bool]


class CacheHierarchy:
    """Single core's view of the memory system.

    ``llc`` and ``dram`` may be shared across hierarchies (multi-core).
    The prefetcher list is fixed at construction (coordination policies
    toggle ``enabled`` flags rather than mutating the list).
    """

    def __init__(
        self,
        params: SystemParams,
        prefetchers: Sequence[Prefetcher] = (),
        ocp: Optional[OffChipPredictor] = None,
        dram: Optional[MainMemory] = None,
        llc: Optional[Cache] = None,
        stats: Optional[SimStats] = None,
    ) -> None:
        self.params = params
        self.l1d = Cache(params.l1d)
        self.l2c = Cache(params.l2c)
        self.llc = llc if llc is not None else Cache(params.llc)
        self.dram = dram if dram is not None else MainMemory(params.dram)
        self.stats = stats if stats is not None else SimStats()
        self.ocp = ocp
        self.prefetchers = list(prefetchers)
        for pf in self.prefetchers:
            if pf.level not in ("l1d", "l2c"):
                raise ValueError(f"{pf.name}: unsupported level {pf.level!r}")
        self._l1_prefetchers = [p for p in self.prefetchers
                                if p.level == "l1d"]
        self._l2_prefetchers = [p for p in self.prefetchers
                                if p.level == "l2c"]
        #: Optional per-request prefetch drop filter (used by TLP).
        self.prefetch_filter: Optional[PrefetchFilter] = None
        #: Recently prefetch-evicted LLC victims, oldest first, for
        #: pollution accounting.
        self._pollution_victims: dict = {}
        #: Athena's feature tracker, fed the hierarchy's events (set by
        #: ``AthenaPolicy.attach``; every rider of a run shares it).
        self.tracker: Optional["FeatureTracker"] = None
        # Precomputed cumulative round-trip latencies (hot-path constants).
        self._lat_l1 = float(params.l1d.latency)
        self._lat_l1_l2 = float(params.l1d.latency + params.l2c.latency)
        self._lat_onchip = float(
            params.l1d.latency + params.l2c.latency + params.llc.latency
        )
        self._ocp_issue_latency = params.ocp_issue_latency
        # Bound-method handles (cache and DRAM wiring is fixed after init).
        self._dram_access_time = self.dram.access_time
        self._l1d_lookup = self.l1d.lookup_slot
        self._l2c_lookup = self.l2c.lookup_slot
        self._llc_lookup = self.llc.lookup_slot
        # L1 demand lookups are inlined in load() when L1 runs LRU (the
        # stock configuration); otherwise load() calls lookup_slot.
        self._l1_lru = self.l1d._lru
        self._l1_slot_get = self.l1d._slot_get

    def __getstate__(self) -> dict:
        # ``_l1_slot_get`` aliases the L1 cache's bound ``dict.get``,
        # which copy/pickle treat as atomic (see ``Cache.__getstate__``);
        # rebind it against the copied L1 instead.
        state = self.__dict__.copy()
        del state["_l1_slot_get"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._l1_slot_get = self.l1d._slot_get

    # ------------------------------------------------------------------ demand

    def block_keys(self, pcs: np.ndarray, addrs: np.ndarray) -> list:
        """The OCP's keys for trace rows (see
        :meth:`~repro.ocp.base.OffChipPredictor.block_keys`); ``None``
        each without an OCP."""
        ocp = self.ocp
        return [None] * len(pcs) if ocp is None else \
            ocp.block_keys(pcs, addrs)

    def load(self, pc: int, addr: int, now: float, key=None) -> float:
        """Perform a demand load; returns its latency.

        ``key`` is the load's row entry of :meth:`block_keys`, handed to
        the OCP (``None`` lets the OCP derive it).
        """
        line = addr >> LINE_SHIFT
        byte_offset = addr & _LINE_MASK
        stats = self.stats
        tracker = self.tracker
        ocp = self.ocp

        # 1. Off-chip prediction races the cache lookup.
        ocp_predicted = False
        ocp_completion = None
        if ocp is not None:
            if ocp.predict(pc, line, byte_offset, key):
                ocp_predicted = True
                stats.ocp_predictions += 1
                ocp_completion = self._dram_access_time(
                    now + self._ocp_issue_latency, line, "ocp")
                stats.dram_ocp_requests += 1
                if tracker is not None:
                    tracker.on_ocp_request(line)

        # 2. Walk the hierarchy.
        went_offchip = False
        l1d = self.l1d
        if self._l1_lru:
            # Inlined Cache.lookup_slot for the L1-LRU fast path.
            slot = self._l1_slot_get(line, -1)
            if slot >= 0:
                l1d._clock += 1
                l1d._stamps[slot] = l1d._clock
        else:
            slot = self._l1d_lookup(line)
        if slot >= 0:
            stats.l1d_hits += 1
            lat = self._lat_l1
            wait = l1d._ready[slot] - now
            latency = lat if lat >= wait else wait
            if l1d._prefetched[slot]:
                self._credit_useful_prefetch(l1d, slot, line, "l1d")
            if self._l1_prefetchers:
                self._train_l1_prefetchers(pc, line, True, now)
        else:
            stats.l1d_misses += 1
            if self._l1_prefetchers:
                self._train_l1_prefetchers(pc, line, False, now)
            l2c = self.l2c
            slot = self._l2c_lookup(line)
            if slot >= 0:
                stats.l2c_hits += 1
                ready = l2c._ready[slot]
                lat = self._lat_l1_l2
                wait = ready - now
                latency = lat if lat >= wait else wait
                self._fill_level(l1d, line, pc, False, False, False,
                                 ready)
                if l2c._prefetched[slot]:
                    self._credit_useful_prefetch(l2c, slot, line, "l2c")
                if self._l2_prefetchers:
                    self._train_l2_prefetchers(pc, line, True, now)
            else:
                stats.l2c_misses += 1
                if self._l2_prefetchers:
                    self._train_l2_prefetchers(pc, line, False, now)
                llc = self.llc
                slot = self._llc_lookup(line)
                if slot >= 0:
                    stats.llc_hits += 1
                    ready = llc._ready[slot]
                    lat = self._lat_onchip
                    wait = ready - now
                    latency = lat if lat >= wait else wait
                    self._fill_level(l2c, line, pc, False, False, False,
                                     ready)
                    self._fill_level(l1d, line, pc, False, False, False,
                                     ready)
                    if llc._prefetched[slot]:
                        self._credit_useful_prefetch(llc, slot, line, "llc")
                else:
                    went_offchip = True
                    latency = self._serve_offchip_load(
                        pc, line, now, ocp_predicted, ocp_completion
                    )

        # 3. Resolve OCP training and accuracy accounting.
        if ocp is not None:
            ocp.train(pc, line, went_offchip, byte_offset, key)
            if ocp_predicted and went_offchip:
                stats.ocp_correct += 1
                if tracker is not None:
                    tracker.on_ocp_correct(line)

        if tracker is not None:
            tracker.on_demand_load(pc, line, went_offchip)
        return latency

    def _serve_offchip_load(
        self,
        pc: int,
        line: int,
        now: float,
        ocp_predicted: bool,
        ocp_completion: Optional[float],
    ) -> float:
        """Fetch a demand miss from DRAM; OCP hit short-circuits the lookup."""
        p = self.params
        stats = self.stats
        if ocp_predicted and ocp_completion is not None:
            # The speculative request *is* the fetch: data arrives when the
            # early DRAM access completes (but the demand still pays at
            # least its L1 lookup before the miss is known to the core).
            wait = ocp_completion - now
            lat1 = self._lat_l1
            latency = wait if wait >= lat1 else lat1
            saved = (now + self._lat_onchip) - (now + p.ocp_issue_latency)
            if saved > 0.0:
                stats.ocp_saved_cycles += saved
        else:
            issue_time = now + self._lat_onchip
            completion = self._dram_access_time(issue_time, line, "demand")
            stats.dram_demand_requests += 1
            latency = completion - now
        stats.llc_miss_latency_sum += latency
        stats.llc_misses += 1
        pollution = self._pollution_victims
        if line in pollution:
            stats.pollution_misses += 1
            del pollution[line]
        if self.tracker is not None:
            self.tracker.on_llc_demand_miss(line)

        arrival = now + latency
        self._fill_level(self.llc, line, pc, False, False, True, arrival)
        self._fill_level(self.l2c, line, pc, False, False, True, arrival)
        self._fill_level(self.l1d, line, pc, False, False, True, arrival)
        if self.ocp is not None:
            self.ocp.on_fill(line)
        return latency

    def store(self, pc: int, addr: int, now: float) -> float:
        """Perform a store.  Write-allocate; latency hidden by the SQ.

        The store's fill traffic is charged to DRAM (it contends with
        everything else) but the returned latency is a single cycle because
        stores retire through the store queue off the critical path.
        """
        line = addr >> LINE_SHIFT
        if self._l1d_lookup(line, is_write=True) < 0:
            if self._l2c_lookup(line) < 0:
                if self._llc_lookup(line) >= 0:
                    self._fill_level(self.l2c, line, pc)
                else:
                    self.dram.access_time(now, line, "demand")
                    self.stats.dram_demand_requests += 1
                    self._fill_level(self.llc, line, pc, False, False, True)
                    self._fill_level(self.l2c, line, pc, False, False, True)
                    if self.ocp is not None:
                        self.ocp.on_fill(line)
            self._fill_level(self.l1d, line, pc, False, True)
        return 1.0

    # ------------------------------------------------------------------ fills

    def _fill_level(
        self,
        cache: Cache,
        line: int,
        pc: int,
        is_prefetch: bool = False,
        dirty: bool = False,
        from_dram: bool = False,
        ready_time: float = 0.0,
    ) -> None:
        evicted = cache.fill_fast(line, pc, is_prefetch, dirty,
                                  from_dram, ready_time)
        if evicted is None:
            return
        if cache is self.llc:
            if evicted.dirty:
                # Writebacks consume bus bandwidth at an approximate time.
                self.dram.access_time(
                    self.dram.next_bus_free, evicted.line_addr, "writeback",
                )
                self.stats.dram_writeback_requests += 1
            if self.ocp is not None:
                self.ocp.on_eviction(evicted.line_addr)
            if is_prefetch:
                self._record_pollution_victim(evicted.line_addr)
                if self.tracker is not None:
                    self.tracker.on_prefetch_eviction(evicted.line_addr)
        else:
            # Non-LLC evictions write back into the next level.  The next
            # level's fill uses its own eviction scratch, so ``evicted``
            # stays valid across this call.
            if evicted.dirty:
                nxt = self.l2c if cache is self.l1d else self.llc
                nxt.fill_fast(evicted.line_addr, pc, False, True)

    def _record_pollution_victim(self, line_addr: int) -> None:
        # Re-inserting moves the line to the end, so dict order is
        # recording order and the first key is the oldest victim.
        victims = self._pollution_victims
        victims.pop(line_addr, None)
        victims[line_addr] = None
        if len(victims) > _POLLUTION_WINDOW:
            del victims[next(iter(victims))]

    def _credit_useful_prefetch(self, cache: Cache, slot: int, line: int,
                                level: str = "llc") -> None:
        cache._prefetched[slot] = 0
        stats = self.stats
        stats.prefetches_useful += 1
        if cache._from_dram[slot]:
            stats.prefetches_useful_offchip += 1
            if level == "l1d":
                stats.prefetches_useful_offchip_l1d += 1
            elif level == "l2c":
                stats.prefetches_useful_offchip_l2c += 1
        for pf in self.prefetchers:
            pf.on_prefetch_useful(line)

    # ------------------------------------------------------------------ prefetch

    def _train_l1_prefetchers(self, pc: int, line: int, hit: bool, now: float) -> None:
        for pf in self._l1_prefetchers:
            self._issue_prefetches(pf, pf.observe(pc, line, hit), pc, now)

    def _train_l2_prefetchers(self, pc: int, line: int, hit: bool, now: float) -> None:
        for pf in self._l2_prefetchers:
            self._issue_prefetches(pf, pf.observe(pc, line, hit), pc, now)

    def _issue_prefetches(
        self, pf: Prefetcher, candidates: List[int], pc: int, now: float
    ) -> None:
        prefetch_filter = self.prefetch_filter
        for cand in candidates:
            if cand < 0:
                continue
            if prefetch_filter is not None and not prefetch_filter(
                pc, cand, pf.level
            ):
                continue
            self._issue_one_prefetch(pf, cand, pc, now)

    def _issue_one_prefetch(
        self, pf: Prefetcher, line: int, pc: int, now: float
    ) -> None:
        is_l1 = pf.level == "l1d"
        target = self.l1d if is_l1 else self.l2c
        if line in target._slot_of:
            return
        stats = self.stats
        stats.prefetches_issued += 1
        if self.tracker is not None:
            self.tracker.on_prefetch_issued(line)

        from_dram = False
        arrival = now
        if is_l1 and line in self.l2c._slot_of:
            pass  # pulled up from L2, no off-chip traffic
        elif line in self.llc._slot_of:
            pass  # pulled up from LLC, no off-chip traffic
        else:
            arrival = self._dram_access_time(now, line, "prefetch")
            stats.dram_prefetch_requests += 1
            from_dram = True
            stats.prefetch_fills_offchip += 1
            if is_l1:
                stats.prefetch_fills_offchip_l1d += 1
            else:
                stats.prefetch_fills_offchip_l2c += 1
            self._fill_level(self.llc, line, pc, True, False, True,
                             arrival)
            if self.ocp is not None:
                self.ocp.on_fill(line)
        self._fill_level(target, line, pc, True, False, from_dram,
                         arrival)
        pf.on_prefetch_filled(line, from_dram)

    # ------------------------------------------------------------------ control

    def set_prefetchers_enabled(self, flags: Sequence[bool]) -> None:
        if len(flags) != len(self.prefetchers):
            raise ValueError(
                f"expected {len(self.prefetchers)} flags, got {len(flags)}"
            )
        for pf, flag in zip(self.prefetchers, flags):
            pf.enabled = bool(flag)

    def set_ocp_enabled(self, flag: bool) -> None:
        if self.ocp is not None:
            self.ocp.enabled = bool(flag)

    def set_degree_fraction(self, fraction: float) -> None:
        for pf in self.prefetchers:
            pf.set_degree_fraction(fraction)
