"""Property-based tests over the synthetic trace generators.

Every pattern family must produce structurally valid, deterministic
traces at any seed and length — these are the foundation every simulation
result rests on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.generators import WORKLOAD_PLANS
from repro.workloads.suites import WorkloadSpec
from repro.workloads.trace import (
    FLAG_BRANCH,
    FLAG_DEP,
    FLAG_LOAD,
    FLAG_MISPRED,
    FLAG_STORE,
    LINE_SHIFT,
)

PATTERNS = sorted(WORKLOAD_PLANS)

seeds = st.integers(min_value=0, max_value=2**31 - 1)
lengths = st.integers(min_value=500, max_value=4_000)


@pytest.mark.parametrize("pattern", PATTERNS)
class TestStructuralValidity:
    @settings(max_examples=10, deadline=None)
    @given(seed=seeds, length=lengths)
    def test_exact_length_and_flags(self, pattern, seed, length):
        trace = WorkloadSpec("t", "prop", pattern, seed).build(length)
        assert len(trace) == length
        flags = trace.flags
        # LOAD and STORE are mutually exclusive.
        assert not np.any((flags & FLAG_LOAD) & ((flags & FLAG_STORE) >> 1))
        both = (flags & FLAG_LOAD != 0) & (flags & FLAG_STORE != 0)
        assert not both.any()
        # MISPRED implies BRANCH.
        mispred = flags & FLAG_MISPRED != 0
        branch = flags & FLAG_BRANCH != 0
        assert not (mispred & ~branch).any()
        # DEP implies LOAD (only loads carry address dependences).
        dep = flags & FLAG_DEP != 0
        load = flags & FLAG_LOAD != 0
        assert not (dep & ~load).any()

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds, length=lengths)
    def test_memory_ops_have_addresses(self, pattern, seed, length):
        trace = WorkloadSpec("t", "prop", pattern, seed).build(length)
        mem = (trace.flags & (FLAG_LOAD | FLAG_STORE)) != 0
        assert mem.any()
        # Line addresses fit a realistic physical address space.
        assert int(trace.addrs.max()) < 1 << 48

    @settings(max_examples=8, deadline=None)
    @given(seed=seeds)
    def test_deterministic_per_seed(self, pattern, seed):
        a = WorkloadSpec("t", "prop", pattern, seed).build(1_500)
        b = WorkloadSpec("t", "prop", pattern, seed).build(1_500)
        assert np.array_equal(a.addrs, b.addrs)
        assert np.array_equal(a.flags, b.flags)
        assert np.array_equal(a.pcs, b.pcs)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**30))
    def test_different_seeds_differ(self, pattern, seed):
        a = WorkloadSpec("t", "prop", pattern, seed).build(1_500)
        b = WorkloadSpec("t", "prop", pattern, seed + 12_345).build(1_500)
        if pattern in ("streaming", "stencil"):
            # Regular sweeps may only differ in their base address.
            assert not np.array_equal(a.addrs, b.addrs)
        else:
            same = np.array_equal(a.addrs, b.addrs) and np.array_equal(
                a.flags, b.flags
            )
            assert not same


@pytest.mark.parametrize("pattern", PATTERNS)
def test_generator_has_memory_traffic(pattern):
    """Every family is a *memory* workload (paper: >= 3 LLC MPKI)."""
    trace = WorkloadSpec("t", "prop", pattern, 7).build(4_000)
    assert trace.num_loads > 4_000 * 0.03


class TestBehaviouralContracts:
    """Pattern families must land in their intended behaviour class."""

    def test_streaming_spatial_locality(self):
        trace = WorkloadSpec("t", "prop", "streaming", 3).build(4_000)
        lines = trace.addrs[(trace.flags & FLAG_LOAD) != 0] >> LINE_SHIFT
        jumps = np.abs(np.diff(lines.astype(np.int64)))
        # Almost every consecutive load pair is within one line.
        assert (jumps <= 1).mean() > 0.95

    def test_pointer_chase_unpredictable(self):
        trace = WorkloadSpec("t", "prop", "pointer_chase", 3,
                             (("decoy_rate", 0.0),)).build(4_000)
        lines = trace.addrs[(trace.flags & FLAG_LOAD) != 0] >> LINE_SHIFT
        jumps = np.abs(np.diff(lines.astype(np.int64)))
        assert np.median(jumps) > 16  # long random hops dominate

    def test_hash_probe_has_dependent_chains(self):
        trace = WorkloadSpec("t", "prop", "hash_probe", 3).build(4_000)
        dep = ((trace.flags & FLAG_DEP) != 0).sum()
        assert dep > 0

    def test_phased_changes_behaviour_mid_trace(self):
        trace = WorkloadSpec("t", "prop", "phased", 3).build(6_000)
        lines = trace.addrs[(trace.flags & FLAG_LOAD) != 0] >> LINE_SHIFT
        half = len(lines) // 2
        first = np.abs(np.diff(lines[:half].astype(np.int64)))
        second = np.abs(np.diff(lines[half:].astype(np.int64)))
        # Irregular-jump share differs across halves (distinct phases).
        assert ((first > 8).mean() != (second > 8).mean())

    def test_compute_low_memory_intensity(self):
        trace = WorkloadSpec("t", "prop", "compute", 3).build(6_000)
        assert trace.memory_intensity() < 0.5

    def test_decoy_rate_increases_sequential_runs(self):
        quiet = WorkloadSpec("t", "p", "pointer_chase", 5,
                             (("decoy_rate", 0.0),)).build(6_000)
        noisy = WorkloadSpec("t", "p", "pointer_chase", 5,
                             (("decoy_rate", 1.0),)).build(6_000)

        def sequential_pairs(trace):
            lines = trace.addrs[(trace.flags & FLAG_LOAD) != 0] >> LINE_SHIFT
            return (np.diff(lines.astype(np.int64)) == 1).sum()

        assert sequential_pairs(noisy) > 4 * max(1, sequential_pairs(quiet))


class TestTraceMethodsOnGenerated:
    @settings(max_examples=6, deadline=None)
    @given(seed=seeds)
    def test_slice_roundtrip(self, seed):
        trace = WorkloadSpec("t", "prop", "graph", seed).build(2_000)
        part = trace.slice(100, 600)
        assert len(part) == 500
        assert np.array_equal(part.addrs, trace.addrs[100:600])
