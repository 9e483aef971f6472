"""Tests for the set-associative cache model and its LRU/SHiP replacement.

Every case goes through the simulator's own entry points,
``lookup_slot``/``fill_fast``, and reads line state from the slot arrays.
``fill_fast`` returns a per-cache scratch victim, so each case reads it
before the next fill.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cache import SHIP_RRPV_MAX, SHIP_SHCT_MAX, Cache
from repro.sim.params import CacheParams


def small_cache(ways=2, sets=4, replacement="lru"):
    return Cache(CacheParams(
        name="T", size_bytes=64 * ways * sets, ways=ways,
        latency=5, replacement=replacement,
    ))


def victim_of(cache, line, **kwargs):
    """Fill ``line``; return the evicted line address (None if no victim)."""
    evicted = cache.fill_fast(line, **kwargs)
    return None if evicted is None else evicted.line_addr


def state_of(cache):
    """Every attribute of ``cache`` but the bound ``dict.get`` alias,
    which a deep copy rebinds."""
    return {name: value for name, value in vars(cache).items()
            if name != "_slot_get"}


class TestConstruction:
    def test_rejects_non_power_of_two_sets(self):
        params = CacheParams(name="bad", size_bytes=64 * 12, ways=4, latency=1)
        with pytest.raises(ValueError):
            Cache(params)

    def test_geometry(self):
        cache = small_cache(ways=2, sets=4)
        assert cache.num_sets == 4
        assert cache.ways == 2

    @pytest.mark.parametrize("kind,lru", [
        ("lru", True), ("LRU", True), ("ship", False), ("ShIP", False),
    ])
    def test_replacement_kind_is_case_insensitive(self, kind, lru):
        assert small_cache(replacement=kind)._lru is lru

    def test_unknown_replacement_kind_rejected(self):
        with pytest.raises(ValueError, match="random"):
            small_cache(replacement="random")

    def test_only_the_chosen_policy_state_is_allocated(self):
        lru = small_cache(replacement="lru")
        ship = small_cache(replacement="ship")
        assert hasattr(lru, "_stamps") and not hasattr(lru, "_rrpv")
        assert hasattr(ship, "_rrpv") and not hasattr(ship, "_stamps")
        assert not hasattr(lru, "_shct") and not hasattr(ship, "_clock")
        # The reuse bit's one reader is SHiP's SHCT training.
        assert hasattr(ship, "_reused") and not hasattr(lru, "_reused")


class TestLookupAndFill:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert cache.lookup_slot(100) == -1
        assert cache.fill_fast(100) is None
        assert cache.lookup_slot(100) == cache._slot_of[100]

    def test_probe_has_no_side_effects(self):
        cache = small_cache()
        cache.fill_fast(100)
        before = copy.deepcopy(cache)
        assert cache.probe(100)
        assert not cache.probe(101)
        assert state_of(cache) == state_of(before)

    @pytest.mark.parametrize("replacement", ["lru", "ship"])
    @pytest.mark.parametrize("is_write", [False, True])
    def test_lookup_miss_has_no_side_effects(self, replacement, is_write):
        """A missing store lookup can stand in for a presence probe."""
        cache = small_cache(ways=2, sets=2, replacement=replacement)
        for line in (0, 1, 2, 5):
            cache.fill_fast(line, pc=line, dirty=line == 2)
        cache.lookup_slot(2)
        before = copy.deepcopy(cache)
        assert cache.lookup_slot(7, is_write=is_write) == -1
        assert state_of(cache) == state_of(before)

    def test_fill_existing_line_merges_dirty(self):
        cache = small_cache()
        cache.fill_fast(100)
        assert cache.fill_fast(100, dirty=True) is None
        slot = cache.lookup_slot(100, is_write=False)
        assert cache._dirty[slot]

    def test_write_sets_dirty(self):
        cache = small_cache()
        cache.fill_fast(100)
        slot = cache.lookup_slot(100, is_write=True)
        cache.fill_fast(100)  # merge of a clean fill keeps the dirty bit
        assert cache._dirty[slot]
        assert cache.lookup_slot(100) == slot

    def test_eviction_reports_victim_address(self):
        cache = small_cache(ways=1, sets=1)
        cache.fill_fast(10)
        assert victim_of(cache, 20) == 10

    def test_eviction_reports_dirty_flag(self):
        cache = small_cache(ways=1, sets=1)
        cache.fill_fast(10, dirty=True)
        evicted = cache.fill_fast(20)
        assert evicted.dirty
        assert not cache.fill_fast(30).dirty

    def test_fill_sets_prefetch_bit(self):
        cache = small_cache(ways=1, sets=1)
        cache.fill_fast(10)
        assert not cache._prefetched[cache._slot_of[10]]
        assert victim_of(cache, 20, is_prefetch=True) == 10
        assert cache._prefetched[cache._slot_of[20]]
        assert victim_of(cache, 30) == 20
        assert not cache._prefetched[cache._slot_of[30]]

    def test_eviction_reports_reuse(self):
        cache = small_cache(ways=1, sets=1, replacement="ship")
        cache.fill_fast(10)
        cache.lookup_slot(10)
        assert cache._reused[cache._slot_of[10]]  # the victim's bit
        cache.fill_fast(20)
        assert not cache._reused[cache._slot_of[20]]
        cache.fill_fast(30)

    def test_victim_is_a_scratch_reused_by_the_next_fill(self):
        cache = small_cache(ways=1, sets=1)
        cache.fill_fast(10)
        first = cache.fill_fast(20)
        assert first.line_addr == 10
        assert cache.fill_fast(30) is first
        assert first.line_addr == 20

    def test_prefetch_bit_survives_lookup_until_cleared(self):
        cache = small_cache()
        cache.fill_fast(100, is_prefetch=True)
        slot = cache.lookup_slot(100)
        assert cache._prefetched[slot]  # reported once...
        cache._prefetched[slot] = 0     # ...as the hierarchy credits it
        cache.fill_fast(100, is_prefetch=True)  # merge: bit stays clear
        assert cache.lookup_slot(100) == slot
        assert not cache._prefetched[slot]

    def test_ready_time_stored_and_merged(self):
        cache = small_cache()
        cache.fill_fast(100, ready_time=500.0)
        slot = cache.lookup_slot(100)
        assert cache._ready[slot] == 500.0
        cache.fill_fast(100, ready_time=800.0)  # later arrival: no change
        assert cache._ready[slot] == 500.0
        cache.fill_fast(100, ready_time=100.0)
        assert cache._ready[slot] == 100.0


class TestLruReplacement:
    def test_victim_is_oldest_fill(self):
        cache = small_cache(ways=4, sets=1)
        for line in range(4):
            assert cache.fill_fast(line) is None  # invalid ways used first
        assert victim_of(cache, 10) == 0
        assert victim_of(cache, 11) == 1

    @pytest.mark.parametrize("ways", [2, 4])
    def test_hit_refreshes_recency(self, ways):
        cache = small_cache(ways=ways, sets=1)
        for line in range(ways):
            cache.fill_fast(line)
        cache.lookup_slot(0)     # 1 becomes LRU
        assert victim_of(cache, 10) == 1

    def test_sets_are_independent(self):
        cache = small_cache(ways=2, sets=2)  # set = line & 1
        cache.fill_fast(0)   # set 0, oldest
        cache.fill_fast(1)   # set 1, oldest
        cache.fill_fast(3)   # set 1
        cache.fill_fast(2)   # set 0
        cache.lookup_slot(1)  # refreshes set 1 only
        assert victim_of(cache, 4) == 0
        assert victim_of(cache, 5) == 3


class TestShipReplacement:
    @pytest.mark.parametrize("prefetch", [False, True])
    def test_hit_promotes_to_rrpv_zero(self, prefetch):
        """A reused demand line outlives a later demand or prefetch fill."""
        cache = small_cache(ways=2, sets=1, replacement="ship")
        cache.fill_fast(1, pc=0x10)
        slot = cache.lookup_slot(1)
        assert cache._rrpv[0][slot] == 0
        cache.fill_fast(2, pc=0x20, is_prefetch=prefetch)
        assert victim_of(cache, 3, pc=0x30) == 2

    def test_prefetch_inserted_at_distant_rrpv(self):
        cache = small_cache(ways=2, sets=1, replacement="ship")
        cache.fill_fast(1, pc=0x10)
        cache.fill_fast(2, pc=0x10, is_prefetch=True)
        assert cache._rrpv[0][cache._slot_of[1]] == 1
        assert cache._rrpv[0][cache._slot_of[2]] == SHIP_RRPV_MAX - 1
        assert victim_of(cache, 3, pc=0x30) == 2

    def test_shct_learns_dead_signature(self):
        cache = small_cache(ways=1, sets=1, replacement="ship")
        dead_pc = 0x400
        cache.fill_fast(0, pc=dead_pc)
        sig = cache._sig[0]
        assert cache._rrpv[0][0] == 1  # untrained: intermediate insertion
        # Fill+evict without reuse drives the counter to zero and holds it.
        for line in range(1, 5):
            cache.fill_fast(line, pc=dead_pc)
        assert cache._shct[sig] == 0
        # Fills from the dead signature now land at distant RRPV.
        assert cache._rrpv[0][0] == SHIP_RRPV_MAX - 1

    def test_shct_rewards_reused_signature(self):
        cache = small_cache(ways=1, sets=1, replacement="ship")
        pc = 0x800
        for line in range(4):
            cache.fill_fast(line, pc=pc)
            cache.lookup_slot(line)
        sig = cache._sig[0]
        assert cache._shct[sig] == 1 + 3  # three reused evictions
        for line in range(4, 20):
            cache.fill_fast(line, pc=pc)
            cache.lookup_slot(line)
        assert cache._shct[sig] == SHIP_SHCT_MAX  # saturates

    def test_signatures_train_independently(self):
        cache = small_cache(ways=1, sets=1, replacement="ship")
        cache.fill_fast(0, pc=0x400)
        dead = cache._sig[0]
        cache.fill_fast(1, pc=0x800)
        live = cache._sig[0]
        assert dead != live
        assert cache._shct[dead] == 0
        assert cache._shct[live] == 1

    def test_aging_always_finds_a_victim(self):
        cache = small_cache(ways=4, sets=1, replacement="ship")
        for line in range(4):
            cache.fill_fast(line, pc=line)
            cache.lookup_slot(line)  # all at RRPV 0
        assert victim_of(cache, 10, pc=0x99) in range(4)
        assert cache.occupancy() == 4
        assert cache.probe(10)

    def test_ship_learns_no_reuse_signature(self):
        cache = small_cache(ways=2, sets=1, replacement="ship")
        for line in range(100, 140):
            cache.fill_fast(line, pc=0x99)
        assert len(list(cache.resident_lines())) == 2
        assert cache._shct[cache._sig[0]] == 0


class TestIntrospection:
    def test_occupancy_counts_valid_lines(self):
        cache = small_cache(ways=2, sets=4)
        assert cache.occupancy() == 0
        for line in range(5):
            cache.fill_fast(line)
        assert cache.occupancy() == 5

    def test_resident_lines_roundtrip(self):
        cache = small_cache(ways=2, sets=4)
        lines = {0, 1, 2, 3}  # one line per set: no capacity evictions
        for line in lines:
            cache.fill_fast(line)
        assert set(cache.resident_lines()) == lines

    def test_invalidate(self):
        cache = small_cache()
        cache.fill_fast(42)
        assert cache.invalidate(42)
        assert not cache.probe(42)
        assert not cache.invalidate(42)
        assert cache.occupancy() == 0

    def test_negative_line_addresses(self):
        """External traces carry negative line addresses; one is a line
        like any other, never an empty slot."""
        cache = small_cache(ways=2, sets=2)
        for line in (-1, -3, -2):
            cache.fill_fast(line, dirty=True)
        assert set(cache.resident_lines()) == {-3, -2, -1}
        assert cache.occupancy() == 3
        assert cache.fill_fast(-4) is None  # set 0 still has a free way
        evicted = cache.fill_fast(-5)  # set 1's least recent line goes
        assert (evicted.line_addr, evicted.dirty) == (-1, True)
        assert cache.invalidate(-5)
        assert sorted(cache.resident_lines()) == [-4, -3, -2]


class TestPropertyBased:
    @given(st.lists(st.integers(min_value=0, max_value=500), max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, lines):
        cache = small_cache(ways=2, sets=4)
        for line in lines:
            cache.fill_fast(line)
        assert cache.occupancy() <= 8

    @given(st.lists(st.integers(min_value=0, max_value=500), max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_resident_addresses_reconstruct_exactly(self, lines):
        """Every reported resident line is present, and none twice."""
        cache = small_cache(ways=4, sets=8)
        for line in lines:
            cache.fill_fast(line)
        residents = list(cache.resident_lines())
        assert len(set(residents)) == len(residents) == cache.occupancy()
        for resident in residents:
            assert cache.probe(resident)

    @given(
        st.lists(st.integers(min_value=0, max_value=100), max_size=200),
        st.sampled_from(["lru", "ship"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_fill_then_probe_invariant(self, lines, replacement):
        cache = small_cache(ways=2, sets=4, replacement=replacement)
        for line in lines:
            evicted = cache.fill_fast(line)
            assert cache.probe(line)
            if evicted is not None:
                assert not cache.probe(evicted.line_addr)
                assert evicted.line_addr & 3 == line & 3  # same set
