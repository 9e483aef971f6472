"""Tests for trace serialization (save/load round trips + corruption)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.generators import WORKLOAD_PLANS
from repro.workloads.suites import WorkloadSpec
from repro.workloads.traceio import (
    FORMAT_VERSION,
    TraceFormatError,
    load_trace,
    save_trace,
)


def make(pattern="graph", seed=3, length=1_200):
    return WorkloadSpec("io-test", "test", pattern, seed).build(length)


class TestRoundTrip:
    def test_arrays_and_identity_preserved(self, tmp_path):
        trace = make()
        path = save_trace(trace, tmp_path / "t.npz")
        loaded = load_trace(path)
        assert loaded.name == trace.name
        assert loaded.suite == trace.suite
        assert np.array_equal(loaded.pcs, trace.pcs)
        assert np.array_equal(loaded.addrs, trace.addrs)
        assert np.array_equal(loaded.flags, trace.flags)
        assert loaded.metadata == trace.metadata

    def test_suffix_appended(self, tmp_path):
        path = save_trace(make(), tmp_path / "t")
        assert path.suffix == ".npz"
        assert path.exists()

    @pytest.mark.parametrize("name", [
        "spec06.mcf_like.0",      # registry names are multi-dot
        "google.sierra.a.3",
        "v1.2",
        "trailing.",              # Path.with_suffix would corrupt these
        "trace.0.bak",
    ])
    def test_multi_dot_names_append_cleanly(self, tmp_path, name):
        """``.npz`` is appended to the full name, never spliced into it."""
        path = save_trace(make(), tmp_path / name)
        assert path.name == name + ".npz"
        assert load_trace(path).name == "io-test"

    def test_existing_npz_suffix_not_doubled(self, tmp_path):
        path = save_trace(make(), tmp_path / "t.npz")
        assert path.name == "t.npz"

    def test_nested_directory_created(self, tmp_path):
        path = save_trace(make(), tmp_path / "a" / "b" / "t.npz")
        assert path.exists()

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**20),
           pattern=st.sampled_from(sorted(WORKLOAD_PLANS)))
    def test_every_pattern_roundtrips(self, tmp_path_factory, seed, pattern):
        trace = make(pattern, seed, 800)
        path = save_trace(
            trace, tmp_path_factory.mktemp("traces") / f"{pattern}.npz"
        )
        loaded = load_trace(path)
        assert np.array_equal(loaded.addrs, trace.addrs)

    def test_loaded_trace_simulates_identically(self, tmp_path):
        from repro.experiments.configs import CacheDesign, build_hierarchy
        from repro.sim.simulator import Simulator

        trace = make(length=2_000)
        loaded = load_trace(save_trace(trace, tmp_path / "t.npz"))
        a = Simulator(trace, build_hierarchy(CacheDesign.cd1()),
                      epoch_length=200).run()
        b = Simulator(loaded, build_hierarchy(CacheDesign.cd1()),
                      epoch_length=200).run()
        assert a.cycles == b.cycles


class TestCorruption:
    def test_not_an_archive(self, tmp_path):
        bogus = tmp_path / "bogus.npz"
        bogus.write_bytes(b"definitely not a zip file")
        with pytest.raises(TraceFormatError):
            load_trace(bogus)

    def test_missing_array(self, tmp_path):
        incomplete = tmp_path / "incomplete.npz"
        np.savez(incomplete, pcs=np.zeros(4, dtype=np.int64))
        with pytest.raises(TraceFormatError, match="missing arrays"):
            load_trace(incomplete)

    def test_version_mismatch(self, tmp_path):
        import json

        trace = make(length=600)
        header = {
            "format_version": FORMAT_VERSION + 1,
            "name": "x", "suite": "y", "metadata": {},
            "num_instructions": len(trace),
        }
        path = tmp_path / "future.npz"
        np.savez(
            path, pcs=trace.pcs, addrs=trace.addrs, flags=trace.flags,
            header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        )
        with pytest.raises(TraceFormatError, match="format version"):
            load_trace(path)

    def test_length_mismatch(self, tmp_path):
        import json

        trace = make(length=600)
        header = {
            "format_version": FORMAT_VERSION,
            "name": "x", "suite": "y", "metadata": {},
            "num_instructions": 599,  # lies
        }
        path = tmp_path / "short.npz"
        np.savez(
            path, pcs=trace.pcs, addrs=trace.addrs, flags=trace.flags,
            header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        )
        with pytest.raises(TraceFormatError, match="length mismatch"):
            load_trace(path)
