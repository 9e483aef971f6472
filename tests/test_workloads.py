"""Tests for the trace format, generators, suites, and mixes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.generators import WORKLOAD_PLANS
from repro.workloads.mixes import build_mixes, pattern_class
from repro.workloads.suites import (
    GOOGLE_CATEGORIES,
    SCALES,
    WorkloadSpec,
    build_trace,
    evaluation_workloads,
    find_workload,
    google_workloads,
    representative_subset,
    tuning_workloads,
    workloads_by_suite,
)
from repro.workloads.trace import (
    FLAG_BRANCH,
    FLAG_DEP,
    FLAG_LOAD,
    FLAG_MISPRED,
    FLAG_STORE,
    Trace,
    TraceBuilder,
)


class TestTrace:
    def test_builder_roundtrip(self):
        b = TraceBuilder("t", "test")
        b.load(0x400, 640)
        b.store(0x404, 704)
        b.branch(0x408, mispredicted=True)
        b.nop(0x40C, count=2)
        trace = b.build()
        assert len(trace) == 5
        assert trace.num_loads == 1
        assert trace.num_stores == 1
        assert trace.num_branches == 1
        assert trace.num_mispredicted_branches == 1

    def test_mispredict_flag_without_branch_flag_is_not_counted(self):
        b = TraceBuilder("t", "test")
        b.branch(0x400, mispredicted=True)
        b.add(0x404, 0, FLAG_MISPRED)
        trace = b.build()
        assert trace.num_branches == 1
        assert trace.num_mispredicted_branches == 1

    def test_dependent_load_flag(self):
        b = TraceBuilder("t", "test")
        b.load(0x400, 640, dependent=True)
        trace = b.build()
        assert trace.flags[0] & FLAG_DEP

    def test_parallel_array_validation(self):
        with pytest.raises(ValueError):
            Trace("bad", "s", np.zeros(3), np.zeros(2), np.zeros(3))

    def test_memory_intensity(self):
        b = TraceBuilder("t", "test")
        b.load(0x400, 640)
        b.nop(0x404, count=3)
        trace = b.build()
        assert trace.memory_intensity() == pytest.approx(0.25)

    def test_footprint_lines(self):
        b = TraceBuilder("t", "test")
        b.load(0x400, 0)
        b.load(0x400, 63)    # same line
        b.load(0x400, 64)    # next line
        trace = b.build()
        assert trace.footprint_lines() == 2

    def test_slice(self):
        b = TraceBuilder("t", "test")
        for i in range(10):
            b.load(0x400, i * 64)
        sliced = b.build().slice(2, 5)
        assert len(sliced) == 3
        assert sliced.addrs[0] == 2 * 64


class TestGenerators:
    @pytest.mark.parametrize("pattern", sorted(WORKLOAD_PLANS))
    def test_generator_produces_requested_length(self, pattern):
        trace = WorkloadSpec(f"t.{pattern}", "test", pattern, 42).build(2000)
        assert abs(len(trace) - 2000) <= 64

    @pytest.mark.parametrize("pattern", sorted(WORKLOAD_PLANS))
    def test_generator_deterministic(self, pattern):
        a = WorkloadSpec("t", "test", pattern, 7).build(1000)
        b = WorkloadSpec("t", "test", pattern, 7).build(1000)
        assert np.array_equal(a.addrs, b.addrs)
        assert np.array_equal(a.flags, b.flags)

    @pytest.mark.parametrize("pattern", sorted(WORKLOAD_PLANS))
    def test_generator_seed_sensitive(self, pattern):
        a = WorkloadSpec("t", "test", pattern, 7).build(1000)
        b = WorkloadSpec("t", "test", pattern, 8).build(1000)
        assert not np.array_equal(a.addrs, b.addrs)

    @pytest.mark.parametrize("pattern", sorted(WORKLOAD_PLANS))
    def test_generator_memory_intensive(self, pattern):
        trace = WorkloadSpec("t", "test", pattern, 3).build(4000)
        assert trace.memory_intensity() > 0.03

    def test_pointer_chase_is_dependent(self):
        # Without decoy payload runs, every chase load is dependent.
        trace = WorkloadSpec("t", "test", "pointer_chase", 1,
                             (("decoy_rate", 0.0),)).build(2000)
        deps = np.count_nonzero(trace.flags & FLAG_DEP)
        loads = trace.num_loads
        assert deps > 0.9 * loads

    def test_pointer_chase_decoy_runs_are_sequential(self):
        trace = WorkloadSpec("t", "test", "pointer_chase", 1,
                             (("decoy_rate", 1.0),)).build(4000)
        # Decoy payload loads come from a dedicated PC and walk
        # consecutive lines (they bait stride prefetchers).
        load_mask = (trace.flags & FLAG_LOAD) != 0
        pcs = trace.pcs[load_mask]
        dep_mask = (trace.flags & FLAG_DEP)[load_mask] != 0
        decoy_pcs = set(pcs[~dep_mask])
        assert decoy_pcs, "decoy runs must emit independent loads"

    def test_streaming_line_advance_is_dependent(self):
        trace = WorkloadSpec("t", "test", "streaming", 1).build(2000)
        deps = np.count_nonzero(trace.flags & FLAG_DEP)
        assert deps > 0
        assert deps < trace.num_loads  # only the line-advance loads

    def test_streaming_addresses_monotone(self):
        trace = WorkloadSpec("t", "test", "streaming", 1).build(2000)
        load_addrs = trace.addrs[(trace.flags & FLAG_LOAD) != 0] >> 6
        assert (np.diff(load_addrs) >= 0).all()


class TestSuites:
    def test_exactly_100_evaluation_workloads(self):
        assert len(evaluation_workloads()) == 100

    def test_suite_composition_matches_table6(self):
        assert len(workloads_by_suite("spec")) == 49
        assert len(workloads_by_suite("parsec")) == 13
        assert len(workloads_by_suite("ligra")) == 13
        assert len(workloads_by_suite("cvp")) == 25

    def test_twenty_tuning_workloads_disjoint(self):
        tuning = tuning_workloads()
        assert len(tuning) == 20
        eval_names = {w.name for w in evaluation_workloads()}
        assert not eval_names & {w.name for w in tuning}

    def test_twelve_google_categories(self):
        assert len(GOOGLE_CATEGORIES) == 12
        assert len(google_workloads()) == 12

    def test_unique_names(self):
        names = [w.name for w in evaluation_workloads()]
        assert len(names) == len(set(names))

    def test_find_workload(self):
        spec = find_workload("ligra.BFS.0")
        assert spec.suite == "ligra"
        with pytest.raises(KeyError):
            find_workload("nope")

    def test_build_trace_deterministic_and_cached(self):
        spec = find_workload("ligra.BFS.0")
        a = build_trace(spec, 2000)
        b = build_trace(spec, 2000)
        assert a is b  # lru_cache
        assert len(a) >= 1900

    def test_scales_defined(self):
        assert {"tiny", "small", "medium", "full"} <= set(SCALES)
        assert SCALES["full"].workloads_per_figure == 100

    @given(st.integers(min_value=4, max_value=60))
    @settings(max_examples=20, deadline=None)
    def test_representative_subset_size_and_uniqueness(self, count):
        subset = representative_subset(count)
        assert len(subset) == count
        assert len({w.name for w in subset}) == count

    def test_representative_subset_covers_suites(self):
        subset = representative_subset(12)
        assert {w.suite for w in subset} == {"spec", "parsec", "ligra", "cvp"}

    def test_representative_subset_balances_classes(self):
        subset = representative_subset(20)
        classes = [pattern_class(w) for w in subset]
        assert 5 <= classes.count("adverse") <= 15


class TestMixes:
    def test_mix_counts_and_sizes(self):
        mixes = build_mixes(4, mixes_per_category=5)
        assert len(mixes) == 15
        assert all(m.num_cores == 4 for m in mixes)

    def test_categories_respected(self):
        mixes = build_mixes(4, mixes_per_category=4)
        for mix in mixes:
            if mix.category == "adverse":
                assert all(
                    pattern_class(w) == "adverse" for w in mix.workloads
                )
            elif mix.category == "friendly":
                assert all(
                    pattern_class(w) == "friendly" for w in mix.workloads
                )

    def test_deterministic(self):
        a = build_mixes(4, 3)
        b = build_mixes(4, 3)
        assert [m.workloads for m in a] == [m.workloads for m in b]

    def test_validation(self):
        with pytest.raises(ValueError):
            build_mixes(0)
        with pytest.raises(ValueError):
            build_mixes(4, 0)
