"""Unit tests for the three off-chip predictors (POPET, HMP, TTP)."""

import pytest

from repro.api.registry import registry
from repro.ocp import make_ocp
from repro.ocp.hmp import HmpPredictor
from repro.ocp.popet import PopetPredictor
from repro.ocp.ttp import TtpPredictor
from repro.sim.hierarchy import CacheHierarchy
from repro.sim.params import scaled_system


def train_uniform(ocp, pc, lines, outcome, rounds=3):
    for _ in range(rounds):
        for line in lines:
            ocp.train(pc, line, outcome, byte_offset=0)


class TestRegistry:
    def test_all_paper_ocps_present(self):
        assert registry.names("ocp") == ["hmp", "popet", "ttp"]

    def test_factory(self):
        for name in registry.names("ocp"):
            ocp = make_ocp(name)
            assert ocp.storage_bits() > 0

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_ocp("oracle")

    def test_disabled_ocp_predicts_false(self):
        ocp = make_ocp("ttp")
        ocp.enabled = False
        assert not ocp.predict(0x400, 999)  # absent tag, would predict True


class TestPopet:
    def test_learns_always_offchip_pc(self):
        ocp = PopetPredictor()
        train_uniform(ocp, 0x400, range(100), True)
        hits = sum(ocp.predict(0x400, line) for line in range(100, 200))
        assert hits > 90

    def test_learns_always_onchip_pc(self):
        ocp = PopetPredictor()
        train_uniform(ocp, 0x800, range(100), False)
        hits = sum(ocp.predict(0x800, line) for line in range(100, 200))
        assert hits < 10

    def test_byte_offset_feature_separates_same_pc(self):
        """The load-bearing feature: element 0 misses, elements 1-7 hit."""
        ocp = PopetPredictor()
        for _ in range(5):
            for line in range(50):
                ocp.train(0x400, line, True, byte_offset=0)
                for element in range(1, 8):
                    ocp.train(0x400, line, False, byte_offset=element * 8)
        predicted_miss = sum(
            ocp.predict(0x400, line, byte_offset=0) for line in range(50, 80)
        )
        predicted_hit = sum(
            ocp.predict(0x400, line, byte_offset=16) for line in range(50, 80)
        )
        assert predicted_miss > 25
        assert predicted_hit < 5

    def test_weights_saturate(self):
        ocp = PopetPredictor()
        train_uniform(ocp, 0x400, [1], True, rounds=1000)
        for table in ocp._weights:
            assert all(-16 <= w <= 15 for w in table)

    def test_storage_matches_table8(self):
        """Table 8: POPET is the 4 KB class (5 x 1K x 5-bit weights)."""
        assert 3.0 <= PopetPredictor().storage_kib() <= 4.0


class TestHmp:
    def test_learns_biased_pc(self):
        ocp = HmpPredictor()
        train_uniform(ocp, 0x400, range(64), True, rounds=4)
        assert ocp.predict(0x400, 1000)

    def test_learns_onchip_pc(self):
        ocp = HmpPredictor()
        train_uniform(ocp, 0x900, range(64), False, rounds=4)
        assert not ocp.predict(0x900, 1000)

    def test_local_history_tracks_alternation(self):
        """A strictly alternating outcome per PC is learnable via the
        local 2-level component."""
        ocp = HmpPredictor()
        outcome = True
        for _ in range(400):
            ocp.train(0x440, 1, outcome)
            outcome = not outcome
        correct = 0
        for _ in range(100):
            if ocp.predict(0x440, 1) == outcome:
                correct += 1
            ocp.train(0x440, 1, outcome)
            outcome = not outcome
        assert correct > 60

    def test_storage_matches_table8(self):
        """Table 8: HMP is the 11 KB class."""
        assert 5.0 <= HmpPredictor().storage_kib() <= 11.5


class TestTtp:
    def test_absent_tag_predicts_offchip(self):
        ocp = TtpPredictor()
        assert ocp.predict(0x400, 123)

    def test_fill_marks_resident(self):
        ocp = TtpPredictor()
        ocp.on_fill(123)
        assert not ocp.predict(0x400, 123)
        assert ocp.resident(123)

    def test_eviction_clears_residency(self):
        ocp = TtpPredictor()
        ocp.on_fill(123)
        ocp.on_eviction(123)
        assert ocp.predict(0x400, 123)

    def test_capacity_evicts_lru_tag(self):
        ocp = TtpPredictor(capacity_lines=4)
        for line in range(5):
            ocp.on_fill(line)
        assert not ocp.resident(0)
        assert ocp.resident(4)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TtpPredictor(capacity_lines=0)

    def test_large_metadata_budget(self):
        """Table 8: TTP's cost is of the order of the L2 tag array."""
        assert TtpPredictor().storage_kib() > 100.0

    def test_prediction_accounting(self):
        """Only positive predictions count: the first load's absent tag
        predicts off-chip, the second finds the tag its miss filled."""
        h = CacheHierarchy(scaled_system(), ocp=TtpPredictor())
        h.load(0x400, 1 << 6, 0.0)
        h.load(0x400, 1 << 6, 1000.0)
        assert h.stats.ocp_predictions == 1
        assert h.stats.ocp_correct == 1
