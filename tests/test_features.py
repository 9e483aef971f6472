"""Tests for feature measurement and state quantization (paper §4.1/§5.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import FeatureTracker, StateQuantizer
from repro.sim.stats import CANDIDATE_FEATURES, EpochTelemetry


def telemetry(**kwargs):
    defaults = dict(instructions=200, cycles=1000.0)
    defaults.update(kwargs)
    return EpochTelemetry(**defaults)


class TestFeatureTracker:
    def test_prefetcher_accuracy_counts_demand_hits(self):
        tracker = FeatureTracker()
        for line in range(10):
            tracker.on_prefetch_issued(line)
        for line in range(5):
            tracker.on_demand_load(0x400, line, False)
        features = tracker.epoch_features(telemetry())
        assert features["prefetcher_accuracy"] == pytest.approx(0.5)

    def test_accuracy_zero_without_prefetches(self):
        tracker = FeatureTracker()
        tracker.on_demand_load(0x400, 1, False)
        features = tracker.epoch_features(telemetry())
        assert features["prefetcher_accuracy"] == 0.0

    def test_ocp_accuracy_ratio(self):
        tracker = FeatureTracker()
        for line in range(8):
            tracker.on_ocp_request(line)
        for line in range(6):
            tracker.on_ocp_correct(line)
        features = tracker.epoch_features(telemetry())
        assert features["ocp_accuracy"] == pytest.approx(0.75)

    def test_pollution_ratio(self):
        tracker = FeatureTracker()
        tracker.on_prefetch_eviction(100)
        tracker.on_prefetch_eviction(101)
        tracker.on_llc_demand_miss(100)   # polluted
        tracker.on_llc_demand_miss(999)   # unrelated
        features = tracker.epoch_features(telemetry())
        assert features["cache_pollution"] == pytest.approx(0.5)

    def test_bandwidth_features_come_from_telemetry(self):
        tracker = FeatureTracker()
        t = telemetry(
            bandwidth_usage=0.7,
            prefetch_bandwidth_share=0.3,
            ocp_bandwidth_share=0.1,
            demand_bandwidth_share=0.6,
        )
        features = tracker.epoch_features(t)
        assert features["bandwidth_usage"] == pytest.approx(0.7)
        assert features["prefetch_bandwidth"] == pytest.approx(0.3)
        assert features["ocp_bandwidth"] == pytest.approx(0.1)
        assert features["demand_bandwidth"] == pytest.approx(0.6)

    def test_reset_epoch_clears_everything(self):
        tracker = FeatureTracker()
        tracker.on_prefetch_issued(1)
        tracker.on_demand_load(0, 1, False)
        tracker.on_ocp_request(2)
        tracker.on_ocp_correct(2)
        tracker.on_prefetch_eviction(3)
        tracker.on_llc_demand_miss(3)
        tracker.reset_epoch()
        features = tracker.epoch_features(telemetry())
        assert features["prefetcher_accuracy"] == 0.0
        assert features["ocp_accuracy"] == 0.0
        assert features["cache_pollution"] == 0.0

    def test_distinct_lines_never_alias(self):
        """The tracker keeps exact sets: a full filter's worth of lines
        gives no false positive for any other line."""
        tracker = FeatureTracker()
        for line in range(4096):
            tracker.on_prefetch_issued(line)
            tracker.on_prefetch_eviction(line)
        for line in range(4096, 8192):
            tracker.on_demand_load(0x400, line, False)
            tracker.on_llc_demand_miss(line)
        features = tracker.epoch_features(telemetry())
        assert features["prefetcher_accuracy"] == 0.0
        assert features["cache_pollution"] == 0.0

    def test_storage_is_about_1_kib(self):
        """Table 4: two 4096-bit filters = 1 KB plus small counters."""
        tracker = FeatureTracker()
        assert 8192 <= tracker.storage_bits() <= 8192 + 256

    def test_all_candidate_features_reported(self):
        tracker = FeatureTracker()
        features = tracker.epoch_features(telemetry())
        assert set(features) == set(CANDIDATE_FEATURES)


lines = st.lists(st.integers(min_value=0, max_value=2**48), max_size=200)


class TestExactSetMembership:
    """The tracker's two sets answer membership exactly, per epoch."""

    def test_takes_no_parameters(self):
        with pytest.raises(TypeError):
            FeatureTracker(4096)

    def test_storage_does_not_grow_with_use(self):
        """The hardware budget is fixed, whatever the sets hold."""
        tracker = FeatureTracker()
        before = tracker.storage_bits()
        for line in range(10_000):
            tracker.on_prefetch_issued(line)
            tracker.on_prefetch_eviction(line)
        assert tracker.storage_bits() == before == 2 * 4096 + 6 * 16

    def test_high_address_bits_distinguish_lines(self):
        tracker = FeatureTracker()
        tracker.on_prefetch_issued(5)
        tracker.on_prefetch_eviction(5)
        for high in range(3, 48):
            line = 5 | (1 << high)
            tracker.on_demand_load(0x400, line, False)
            tracker.on_llc_demand_miss(line)
        features = tracker.epoch_features(telemetry())
        assert features["prefetcher_accuracy"] == 0.0
        assert features["cache_pollution"] == 0.0

    def test_repeated_issue_of_one_line_counts_each_issue(self):
        tracker = FeatureTracker()
        tracker.on_prefetch_issued(7)
        tracker.on_prefetch_issued(7)
        tracker.on_demand_load(0x400, 7, False)
        features = tracker.epoch_features(telemetry())
        assert features["prefetcher_accuracy"] == pytest.approx(0.5)

    def test_accuracy_clamped_when_hits_exceed_issues(self):
        tracker = FeatureTracker()
        tracker.on_prefetch_issued(7)
        for _ in range(3):
            tracker.on_demand_load(0x400, 7, False)
        features = tracker.epoch_features(telemetry())
        assert features["prefetcher_accuracy"] == 1.0

    def test_offchip_demand_still_counts_as_hit(self):
        tracker = FeatureTracker()
        tracker.on_prefetch_issued(7)
        tracker.on_demand_load(0x400, 7, True)
        features = tracker.epoch_features(telemetry())
        assert features["prefetcher_accuracy"] == 1.0

    def test_prefetched_set_does_not_feed_pollution(self):
        tracker = FeatureTracker()
        tracker.on_prefetch_issued(9)
        tracker.on_llc_demand_miss(9)
        features = tracker.epoch_features(telemetry())
        assert features["cache_pollution"] == 0.0

    def test_victim_set_does_not_feed_accuracy(self):
        tracker = FeatureTracker()
        tracker.on_prefetch_issued(1)
        tracker.on_prefetch_eviction(9)
        tracker.on_demand_load(0x400, 9, False)
        features = tracker.epoch_features(telemetry())
        assert features["prefetcher_accuracy"] == 0.0

    def test_each_miss_on_a_victim_is_polluted(self):
        tracker = FeatureTracker()
        tracker.on_prefetch_eviction(9)
        tracker.on_llc_demand_miss(9)
        tracker.on_llc_demand_miss(9)
        tracker.on_llc_demand_miss(10)
        tracker.on_llc_demand_miss(11)
        features = tracker.epoch_features(telemetry())
        assert features["cache_pollution"] == pytest.approx(0.5)

    def test_ocp_accuracy_zero_without_predictions(self):
        tracker = FeatureTracker()
        tracker.on_ocp_correct(3)
        features = tracker.epoch_features(telemetry())
        assert features["ocp_accuracy"] == 0.0

    def test_lines_from_last_epoch_are_forgotten(self):
        tracker = FeatureTracker()
        tracker.on_prefetch_issued(1)
        tracker.on_prefetch_eviction(2)
        tracker.reset_epoch()
        tracker.on_prefetch_issued(3)
        tracker.on_demand_load(0x400, 1, False)
        tracker.on_llc_demand_miss(2)
        features = tracker.epoch_features(telemetry())
        assert features["prefetcher_accuracy"] == 0.0
        assert features["cache_pollution"] == 0.0

    @given(lines, lines)
    @settings(max_examples=50, deadline=None)
    def test_accuracy_matches_exact_membership(self, issued, demanded):
        tracker = FeatureTracker()
        for line in issued:
            tracker.on_prefetch_issued(line)
        for line in demanded:
            tracker.on_demand_load(0x400, line, False)
        hits = sum(1 for line in demanded if line in set(issued))
        expected = min(1.0, hits / len(issued)) if issued else 0.0
        features = tracker.epoch_features(telemetry())
        assert features["prefetcher_accuracy"] == pytest.approx(expected)

    @given(lines, lines)
    @settings(max_examples=50, deadline=None)
    def test_pollution_matches_exact_membership(self, victims, missed):
        tracker = FeatureTracker()
        for line in victims:
            tracker.on_prefetch_eviction(line)
        for line in missed:
            tracker.on_llc_demand_miss(line)
        polluted = sum(1 for line in missed if line in set(victims))
        expected = polluted / len(missed) if missed else 0.0
        features = tracker.epoch_features(telemetry())
        assert features["cache_pollution"] == pytest.approx(expected)

    @given(lines)
    @settings(max_examples=50, deadline=None)
    def test_reset_restores_fresh_tracker(self, keys):
        tracker = FeatureTracker()
        for line in keys:
            tracker.on_prefetch_issued(line)
            tracker.on_demand_load(0x400, line, False)
            tracker.on_ocp_request(line)
            tracker.on_ocp_correct(line)
            tracker.on_prefetch_eviction(line)
            tracker.on_llc_demand_miss(line)
        tracker.reset_epoch()
        t = telemetry()
        assert tracker.epoch_features(t) == FeatureTracker().epoch_features(t)

    def test_close_epoch_freezes_features_then_resets(self):
        tracker = FeatureTracker()
        assert tracker.features == {}
        tracker.on_prefetch_issued(1)
        tracker.on_demand_load(0x400, 1, False)
        t = telemetry(bandwidth_usage=0.25)
        measured = tracker.epoch_features(t)
        tracker.close_epoch(t)
        assert tracker.features == measured
        assert measured["prefetcher_accuracy"] == 1.0
        assert tracker.epoch_features(t) == FeatureTracker().epoch_features(t)


class TestStateQuantizer:
    def test_rejects_unknown_feature(self):
        with pytest.raises(ValueError):
            StateQuantizer(("not_a_feature",))

    def test_rejects_non_power_of_two_bins(self):
        with pytest.raises(ValueError):
            StateQuantizer(("bandwidth_usage",), bins=3)

    def test_quantize_endpoints(self):
        q = StateQuantizer(("bandwidth_usage",), bins=8)
        assert q.quantize_value(0.0) == 0
        assert q.quantize_value(1.0) == 7
        assert q.quantize_value(2.0) == 7  # clamped
        assert q.quantize_value(-1.0) == 0  # clamped

    def test_quantize_monotone(self):
        q = StateQuantizer(("bandwidth_usage",), bins=8)
        values = [q.quantize_value(v / 100) for v in range(101)]
        assert values == sorted(values)

    def test_state_vector_concatenates_in_feature_order(self):
        q = StateQuantizer(("prefetcher_accuracy", "ocp_accuracy"), bins=4)
        state = q.state_vector(
            {"prefetcher_accuracy": 0.99, "ocp_accuracy": 0.0}
        )
        assert state == (3 << 2) | 0

    def test_state_bits(self):
        q = StateQuantizer(
            ("prefetcher_accuracy", "ocp_accuracy", "bandwidth_usage",
             "cache_pollution"),
            bins=8,
        )
        assert q.state_bits == 12

    def test_plane_states_first_is_bias(self):
        q = StateQuantizer(("bandwidth_usage",), bins=8)
        states = q.plane_states({"bandwidth_usage": 0.9}, num_planes=8)
        assert len(states) == 8
        assert states[0] == 0

    def test_plane_states_nearby_values_share_tiles(self):
        q = StateQuantizer(("bandwidth_usage",), bins=8)
        a = q.plane_states({"bandwidth_usage": 0.50}, 8)
        b = q.plane_states({"bandwidth_usage": 0.52}, 8)
        shared = sum(1 for x, y in zip(a, b) if x == y)
        assert shared >= 5

    def test_plane_states_distant_values_differ(self):
        q = StateQuantizer(("bandwidth_usage",), bins=8)
        a = q.plane_states({"bandwidth_usage": 0.1}, 8)
        b = q.plane_states({"bandwidth_usage": 0.9}, 8)
        differing = sum(1 for x, y in zip(a[1:], b[1:]) if x != y)
        assert differing == 7

    def test_missing_feature_defaults_to_zero(self):
        q = StateQuantizer(("bandwidth_usage", "ocp_accuracy"), bins=4)
        assert q.state_vector({}) == 0

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_bins_always_in_range(self, value):
        q = StateQuantizer(("bandwidth_usage",), bins=8)
        for shift in (0.0, 0.01, 0.1):
            assert 0 <= q.quantize_value(value, shift) < 8

