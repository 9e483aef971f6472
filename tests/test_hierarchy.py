"""Integration tests for the cache hierarchy (demand/prefetch/OCP paths)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import AthenaConfig
from repro.core.features import FeatureTracker
from repro.experiments.configs import CacheDesign, build_hierarchy
from repro.ocp.base import OffChipPredictor
from repro.policies.athena import AthenaPolicy
from repro.prefetchers.base import Prefetcher
from repro.sim import hierarchy
from repro.sim.hierarchy import CacheHierarchy
from repro.sim.params import scaled_system
from repro.sim.simulator import Simulator
from repro.sim.stats import EpochTelemetry
from repro.workloads.suites import build_trace, find_workload


class AlwaysOffchipOcp(OffChipPredictor):
    """Test double: predicts off-chip unconditionally."""

    def predict(self, pc, line_addr, byte_offset=0, key=None):
        return self.enabled

    def train(self, pc, line_addr, went_offchip, byte_offset=0, key=None):
        self.last_outcome = went_offchip

    def storage_bits(self):
        return 0


class NeverOffchipOcp(OffChipPredictor):
    def predict(self, pc, line_addr, byte_offset=0, key=None):
        return False

    def train(self, pc, line_addr, went_offchip, byte_offset=0, key=None):
        pass

    def storage_bits(self):
        return 0


class NextLinePf(Prefetcher):
    level = "l2c"
    max_degree = 2

    def _train_and_predict(self, pc, line_addr, hit):
        return [line_addr + 1, line_addr + 2]

    def storage_bits(self):
        return 0


class L1NextLinePf(NextLinePf):
    level = "l1d"


class ScriptedPf(Prefetcher):
    """Test double: issues the lines in ``script`` on its next lookup."""

    level = "l2c"
    max_degree = 8

    def __init__(self):
        super().__init__()
        self.script = []

    def _train_and_predict(self, pc, line_addr, hit):
        script, self.script = self.script, []
        return script

    def storage_bits(self):
        return 0


def make_hierarchy(**kwargs):
    return CacheHierarchy(scaled_system(), **kwargs)


def addr(line, offset=0):
    return (line << 6) | offset


class TestDemandPath:
    def test_cold_load_goes_offchip(self):
        h = make_hierarchy()
        h.load(0x400, addr(100), 0.0)
        assert h.stats.llc_misses == 1
        assert h.stats.dram_demand_requests == 1

    def test_second_load_hits_l1(self):
        h = make_hierarchy()
        h.load(0x400, addr(100), 0.0)
        latency = h.load(0x400, addr(100), 1000.0)
        assert (h.stats.l1d_hits, h.stats.llc_misses) == (1, 1)
        assert latency == pytest.approx(h.params.l1d.latency)

    def test_miss_latency_exceeds_onchip_lookup(self):
        h = make_hierarchy()
        latency = h.load(0x400, addr(100), 0.0)
        onchip = (h.params.l1d.latency + h.params.l2c.latency
                  + h.params.llc.latency)
        assert latency > onchip

    def test_llc_hit_after_l1_l2_eviction(self):
        h = make_hierarchy()
        h.load(0x400, addr(5), 0.0)
        # Evict line 5 from L1 (4-way, 16 sets => 5 conflicting fills).
        for k in range(1, 8):
            h.load(0x400, addr(5 + 16 * k), 10.0 * k)
        h.l1d.invalidate(5)
        h.l2c.invalidate(5)
        misses = h.stats.llc_misses
        latency = h.load(0x400, addr(5), 1e6)
        assert h.stats.llc_misses == misses
        assert latency >= h.params.llc.latency

    def test_in_flight_line_waits_for_arrival(self):
        """A demand hitting a line still in flight pays the remaining
        fill time (MSHR merge), not just the lookup latency."""
        h = make_hierarchy(prefetchers=[NextLinePf()])
        h.load(0x400, addr(100), 0.0)  # prefetches 101 at t=0
        latency = h.load(0x400, addr(101), 1.0)
        assert h.stats.llc_misses == 1
        assert latency > h.params.l1d.latency + h.params.l2c.latency

    def test_store_traffic_counted_but_fast(self):
        h = make_hierarchy()
        latency = h.store(0x400, addr(100), 0.0)
        assert latency == 1.0
        assert h.stats.dram_demand_requests == 1

    def test_dirty_llc_eviction_writes_back(self):
        h = make_hierarchy()
        h.store(0x400, addr(7), 0.0)
        sets = h.llc.num_sets
        conflicts = 0
        t = 100.0
        while h.stats.dram_writeback_requests == 0 and conflicts < 20:
            conflicts += 1
            h.load(0x400, addr(7 + sets * conflicts), t)
            t += 100.0
        assert h.stats.dram_writeback_requests >= 1

    def test_l1d_writeback_drops_the_dirty_l2c_line_it_displaces(self):
        """Pins a known approximation (docs/architecture.md, "Simulator
        approximations"): a dirty L1D victim is written into L2C with a
        bare fill whose own victim is ignored, so a dirty L2C line it
        displaces reaches neither the LLC nor DRAM."""
        h = make_hierarchy()
        l2c, l1d = h.l2c, h.l1d
        displaced = l2c.num_sets
        for way in range(1, l2c.ways + 1):
            l2c.fill_fast(l2c.num_sets * way, 0x400, False, True)
        # Maps to set 0 of both L1D and L2C, and is in neither yet.
        written_back = l2c.num_sets * (l2c.ways + 1)
        l1d.fill_fast(written_back, 0x400, False, True)
        for way in range(1, l1d.ways + 1):
            h._fill_level(l1d, written_back + l1d.num_sets * way, 0x400)
        assert not l1d.probe(written_back)
        assert l2c.probe(written_back)
        assert not l2c.probe(displaced)
        assert not h.llc.probe(displaced)
        assert h.stats.dram_writeback_requests == 0


class TestOcpPath:
    def test_correct_prediction_faster_than_plain_miss(self):
        plain = make_hierarchy()
        plain_latency = plain.load(0x400, addr(100), 0.0)
        assisted = make_hierarchy(ocp=AlwaysOffchipOcp())
        assisted_latency = assisted.load(0x400, addr(100), 0.0)
        assert assisted_latency < plain_latency
        assert assisted.stats.ocp_correct == 1
        assert assisted.stats.ocp_predictions == 1

    def test_wrong_prediction_burns_bandwidth(self):
        h = make_hierarchy(ocp=AlwaysOffchipOcp())
        h.load(0x400, addr(100), 0.0)
        h.load(0x400, addr(100), 1000.0)  # L1 hit, but OCP fires anyway
        assert h.stats.dram_ocp_requests == 2
        assert h.stats.ocp_correct == 1

    def test_disabled_ocp_issues_nothing(self):
        h = make_hierarchy(ocp=AlwaysOffchipOcp())
        h.set_ocp_enabled(False)
        h.load(0x400, addr(100), 0.0)
        assert h.stats.dram_ocp_requests == 0

    def test_ocp_trained_with_outcome(self):
        ocp = AlwaysOffchipOcp()
        h = make_hierarchy(ocp=ocp)
        h.load(0x400, addr(100), 0.0)
        assert ocp.last_outcome is True
        h.load(0x400, addr(100), 1000.0)
        assert ocp.last_outcome is False

    def test_negative_predictor_never_requests(self):
        h = make_hierarchy(ocp=NeverOffchipOcp())
        h.load(0x400, addr(100), 0.0)
        assert h.stats.dram_ocp_requests == 0
        assert h.stats.ocp_predictions == 0

    def test_higher_issue_latency_slower(self):
        fast = CacheHierarchy(
            scaled_system().with_ocp_issue_latency(6), ocp=AlwaysOffchipOcp()
        )
        slow = CacheHierarchy(
            scaled_system().with_ocp_issue_latency(30), ocp=AlwaysOffchipOcp()
        )
        assert (
            fast.load(0x400, addr(100), 0.0)
            < slow.load(0x400, addr(100), 0.0)
        )


class TestPrefetchPath:
    def test_prefetch_fills_target_level(self):
        h = make_hierarchy(prefetchers=[NextLinePf()])
        h.load(0x400, addr(100), 0.0)
        assert h.l2c.probe(101)
        assert h.l2c.probe(102)
        assert h.stats.prefetches_issued == 2
        assert h.stats.dram_prefetch_requests == 2

    def test_l1_prefetcher_fills_l1(self):
        h = make_hierarchy(prefetchers=[L1NextLinePf()])
        h.load(0x400, addr(100), 0.0)
        assert h.l1d.probe(101)

    def test_useful_prefetch_credited_once(self):
        h = make_hierarchy(prefetchers=[NextLinePf()])
        h.load(0x400, addr(100), 0.0)
        h.load(0x400, addr(101), 1000.0)
        h.load(0x400, addr(101), 2000.0)
        assert h.stats.prefetches_useful == 1

    def test_disabled_prefetcher_is_silent(self):
        h = make_hierarchy(prefetchers=[NextLinePf()])
        h.set_prefetchers_enabled([False])
        h.load(0x400, addr(100), 0.0)
        assert h.stats.prefetches_issued == 0

    def test_enable_flags_length_checked(self):
        h = make_hierarchy(prefetchers=[NextLinePf()])
        with pytest.raises(ValueError):
            h.set_prefetchers_enabled([True, False])

    def test_prefetch_filter_drops_requests(self):
        h = make_hierarchy(prefetchers=[NextLinePf()])
        h.prefetch_filter = lambda pc, line, level: False
        h.load(0x400, addr(100), 0.0)
        assert h.stats.prefetches_issued == 0

    def test_resident_line_not_reprefetched(self):
        h = make_hierarchy(prefetchers=[NextLinePf()])
        h.load(0x400, addr(100), 0.0)
        issued = h.stats.prefetches_issued
        h.load(0x400, addr(100), 1000.0)  # 101/102 already resident
        assert h.stats.prefetches_issued == issued

    def test_prefetch_credited_at_l2c_and_again_at_llc(self):
        """Pins a known fault (ROADMAP item 2): the LLC copy of a DRAM
        prefetch keeps its prefetched mark after the L2C copy is
        credited, so one prefetch is credited twice."""
        pf = ScriptedPf()
        h = make_hierarchy(prefetchers=[pf])
        pf.script = [101]
        h.load(0x400, addr(100), 0.0)  # prefetches 101 from DRAM
        h.load(0x400, addr(101), 1000.0)  # L2C hit: credited
        h.l1d.invalidate(101)
        h.l2c.invalidate(101)
        h.load(0x400, addr(101), 2000.0)  # LLC hit: credited again
        assert h.stats.prefetches_issued == 1
        assert h.stats.prefetch_fills_offchip == 1
        assert h.stats.prefetches_useful == 2
        assert h.stats.prefetches_useful_offchip == 2

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_pollution_tracked_on_prefetch_eviction(self, k):
        """k live lines evicted by prefetch fills and then demanded give
        exactly k pollution misses, and the hierarchy's FeatureTracker
        counts the same k in its epoch."""
        pf = ScriptedPf()
        h = make_hierarchy(prefetchers=[pf])
        h.tracker = FeatureTracker()
        # Fill LLC sets 1..k with demand lines, then prefetch one new
        # line into each: each prefetch fill evicts one live line.
        sets, ways = h.llc.num_sets, h.llc.ways
        t = 0.0
        resident = []
        for s in range(1, k + 1):
            for way in range(ways):
                line = s + sets * way
                h.load(0x400, addr(line), t)
                resident.append(line)
                t += 1000.0
        pf.script = [s + sets * ways for s in range(1, k + 1)]
        h.load(0x500, addr(sets * 4 * ways), t)  # set 0: the trigger
        victims = [line for line in resident if not h.llc.probe(line)]
        assert len(victims) == k
        assert h.stats.pollution_misses == 0
        misses = h.stats.llc_misses
        t = 1e7
        for line in victims:
            h.l1d.invalidate(line)
            h.l2c.invalidate(line)
            h.load(0x400, addr(line), t)
            t += 1000.0
        assert h.stats.llc_misses == misses + k
        assert h.stats.pollution_misses == k
        # One epoch since the tracker was attached: k of its demand
        # misses are polluted.
        features = h.tracker.epoch_features(
            EpochTelemetry(instructions=1, cycles=1.0))
        assert features["cache_pollution"] == pytest.approx(
            k / h.stats.llc_misses)

    def test_pollution_window_evicts_oldest_victim(self, monkeypatch):
        # The window must always drop the least recently recorded victim,
        # as a min-by-clock scan would, across re-records and hits.
        window = 8
        monkeypatch.setattr(hierarchy, "_POLLUTION_WINDOW", window)
        h = make_hierarchy()
        rng = random.Random(1234)
        reference = {}
        clock = 0
        evictions = 0
        for _ in range(5000):
            line = rng.randrange(24)
            if rng.random() < 0.2:
                # A demand miss on a tracked victim removes it.
                h._pollution_victims.pop(line, None)
                reference.pop(line, None)
            else:
                h._record_pollution_victim(line)
                clock += 1
                reference[line] = clock
                if len(reference) > window:
                    del reference[min(reference, key=reference.get)]
                    evictions += 1
            assert h._pollution_victims.keys() == reference.keys()
        assert evictions > 100

    def test_degree_fraction_scales_candidates(self):
        pf = NextLinePf()
        h = make_hierarchy(prefetchers=[pf])
        h.set_degree_fraction(0.5)
        h.load(0x400, addr(100), 0.0)
        assert h.stats.prefetches_issued == 1  # degree 2 -> 1


class TestSharedTracker:
    def test_seed_group_feeds_one_tracker_each_load_once(self, monkeypatch):
        """A 3-seed Athena group's hierarchy holds exactly one feature
        tracker, and each demand load reaches it once."""
        seen = []
        on_demand_load = FeatureTracker.on_demand_load

        def counted(tracker, pc, line, went_offchip):
            seen.append(id(tracker))
            on_demand_load(tracker, pc, line, went_offchip)

        monkeypatch.setattr(FeatureTracker, "on_demand_load", counted)
        h = build_hierarchy(CacheDesign.cd1())
        riders = [AthenaPolicy(AthenaConfig(seed=seed)) for seed in (1, 2, 3)]
        sim = Simulator(build_trace(find_workload("spec06.mcf_like.0"), 1200),
                        h, epoch_length=150, warmup_fraction=0.0,
                        riders=riders)
        assert isinstance(h.tracker, FeatureTracker)
        assert all(policy.hierarchy.tracker is h.tracker for policy in riders)
        sim.run()
        # Eight epochs are the agents' forced warm-start: no rider parts.
        assert sim.results[0] is sim.results[1] is sim.results[2]
        assert sim.results[0].stats.loads > 0
        assert seen == [id(h.tracker)] * sim.results[0].stats.loads


class TestL1LookupPaths:
    """``load`` inlines the L1-LRU lookup; every other L1 goes through
    ``Cache.lookup_slot``.  Both must agree access for access."""

    @given(st.lists(
        st.tuples(
            st.booleans(),                            # store?
            st.sampled_from([0x400, 0x404, 0x8a0]),   # pc
            st.integers(min_value=0, max_value=95),    # line: 6 per L1 set
            st.integers(min_value=0, max_value=300),   # cycles since last
        ),
        min_size=50, max_size=400,
    ))
    @settings(max_examples=25, deadline=None)
    def test_inlined_and_generic_l1_lookup_agree(self, accesses):
        def access(h, is_store, pc, line, now):
            if is_store:
                return h.store(pc, addr(line, 8), now)
            return h.load(pc, addr(line, 8), now)

        inlined = build_hierarchy(CacheDesign.cd1())
        generic = build_hierarchy(CacheDesign.cd1())
        assert inlined._l1_lru
        generic._l1_lru = False
        now = 0.0
        for is_store, pc, line, gap in accesses:
            now += gap
            assert access(generic, is_store, pc, line, now) == \
                access(inlined, is_store, pc, line, now)
        assert generic.stats == inlined.stats
        # The L1 state the paths update: residency and LRU stamps.
        assert generic.l1d._slot_of == inlined.l1d._slot_of
        assert generic.l1d._stamps == inlined.l1d._stamps
