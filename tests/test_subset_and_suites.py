"""Properties of the workload registry and the stratified subsetting.

The figure drivers trust `representative_subset` to mirror the full
100-workload registry at any count — these tests pin down the
stratification contract and the registry's paper-mandated composition.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.suites import (
    SCALES,
    build_trace,
    evaluation_workloads,
    find_workload,
    google_workloads,
    representative_subset,
    tuning_workloads,
)


class TestRegistryComposition:
    """Paper Table 6 composition: 29+20+13+13+25 = 100 traces."""

    def test_hundred_evaluation_workloads(self):
        assert len(evaluation_workloads()) == 100

    def test_suite_counts_match_table6(self):
        counts = Counter(w.suite for w in evaluation_workloads())
        assert counts["spec"] == 49      # SPEC 2006 (29) + SPEC 2017 (20)
        assert counts["parsec"] == 13
        assert counts["ligra"] == 13
        assert counts["cvp"] == 25

    def test_twenty_tuning_workloads_disjoint(self):
        tuning = tuning_workloads()
        assert len(tuning) == 20
        eval_names = {w.name for w in evaluation_workloads()}
        assert not eval_names & {w.name for w in tuning}

    def test_google_suite_has_twelve_categories(self):
        names = [w.name for w in google_workloads()]
        assert len(names) == 12
        assert len(set(names)) == 12

    def test_unique_names_and_seeds_vary(self):
        specs = evaluation_workloads()
        assert len({w.name for w in specs}) == len(specs)
        # Same-pattern workloads must not share seeds (identical traces).
        by_pattern_seed = Counter((w.pattern, w.seed, w.params)
                                  for w in specs)
        assert max(by_pattern_seed.values()) == 1

    def test_find_workload_roundtrip(self):
        for spec in evaluation_workloads()[:5]:
            assert find_workload(spec.name) is spec


class TestRepresentativeSubset:
    @settings(max_examples=15, deadline=None)
    @given(count=st.integers(min_value=4, max_value=100))
    def test_exact_count_and_uniqueness(self, count):
        subset = representative_subset(count)
        assert len(subset) == count
        assert len({w.name for w in subset}) == count

    @settings(max_examples=10, deadline=None)
    @given(count=st.integers(min_value=8, max_value=60))
    def test_suite_shares_roughly_preserved(self, count):
        subset = representative_subset(count)
        full = Counter(w.suite for w in evaluation_workloads())
        got = Counter(w.suite for w in subset)
        for suite, total in full.items():
            expected = count * total / 100
            assert abs(got[suite] - expected) <= 3, (suite, got)

    def test_deterministic(self):
        assert representative_subset(10) == representative_subset(10)

    def test_full_count_returns_everything(self):
        assert len(representative_subset(100)) == 100
        assert len(representative_subset(500)) == 100

    def test_mixes_behaviour_classes_within_families(self):
        """The centred picks must not all land on one behaviour class
        inside an alternating family (the CVP int/fp interleave)."""
        subset = representative_subset(24)
        cvp = [w.name for w in subset if w.suite == "cvp"]
        assert len(cvp) >= 4


class TestScales:
    def test_all_scales_well_formed(self):
        for scale in SCALES.values():
            assert scale.trace_length >= 40 * scale.epoch_length // 8
            assert 0.0 <= scale.warmup_fraction < 1.0
            assert scale.workloads_per_figure >= 1
            assert scale.policy_seeds >= 1

    def test_scales_monotone_in_size(self):
        tiny, small = SCALES["tiny"], SCALES["small"]
        medium, full = SCALES["medium"], SCALES["full"]
        assert (tiny.trace_length < small.trace_length
                < medium.trace_length < full.trace_length)
        assert full.workloads_per_figure == 100

    def test_build_trace_uses_requested_length(self):
        spec = evaluation_workloads()[0]
        trace = build_trace(spec, 2_000)
        assert len(trace) == 2_000

    def test_build_trace_cached(self):
        spec = evaluation_workloads()[0]
        assert build_trace(spec, 2_000) is build_trace(spec, 2_000)


class TestWarmupCoversExploration:
    """The scale contract the agent's warm-start relies on
    (docs/reproduction.md):
    at every scale, 8 forced-exploration epochs fit inside warm-up."""

    @pytest.mark.parametrize("name", sorted(SCALES))
    def test_eight_epochs_inside_warmup(self, name):
        scale = SCALES[name]
        warmup_instructions = scale.trace_length * scale.warmup_fraction
        assert warmup_instructions >= 8 * scale.epoch_length
