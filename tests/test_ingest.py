"""Tests for external trace ingestion (:mod:`repro.workloads.ingest`).

Covers the adapter round-trips (memtrace/CSV and canonical ``.npz``),
the content-addressed identity of ``trace://`` sources (path excluded,
sha256 + adapter params included), re-import cache hits, malformed-file
error messages, the engine-key acceptance criterion (a spec referencing
an imported file resolves to identical content-hash keys across
invocations, and a warm pass executes zero trace builds and zero
simulations), and the new extended workload families' scalar/vectorized
digest stability.
"""

import dataclasses
import pathlib
import shutil

import numpy as np
import pytest

import scalar_oracle
import trace_goldens
from repro.api import ExperimentSpec, RunSpec, Session, SpecError
from repro.api.registry import register_trace_adapter, registry
from repro.engine import Engine, ResultStore
from repro.workloads.ingest import (
    ExternalTraceSpec,
    MemtraceAdapter,
    NpzAdapter,
    TraceImportError,
    adapter_for_path,
    import_trace,
    parse_trace_source,
    resolve_trace_source,
    trace_source,
)
from repro.workloads.suites import (
    build_trace,
    extended_workloads,
    find_workload,
    stream_trace,
)
from repro.workloads.trace import (
    FLAG_BRANCH,
    FLAG_DEP,
    FLAG_LOAD,
    FLAG_MISPRED,
    FLAG_STORE,
)
from repro.workloads.tracecache import (
    TraceCache,
    fingerprint,
    reset_trace_cache,
)
from repro.workloads.traceio import save_trace


@pytest.fixture(autouse=True)
def fresh_cache():
    """Isolate every test from the process-wide trace-cache singleton."""
    cache = reset_trace_cache(TraceCache(max_bytes=1 << 30, disk_dir=None))
    yield cache
    reset_trace_cache()


MEMTRACE = """\
# pc,op[,addr] — demo memtrace
0x400000,L,0x10000
0x400004,N
0x400008,D,0x10040
0x40000c,B
0x400010,M
0x400014,S,0x10080
1024,L,2048        # decimal works too
"""


@pytest.fixture
def memtrace_file(tmp_path):
    path = tmp_path / "demo.csv"
    path.write_text(MEMTRACE)
    return path


def _parse(path, length, adapter=None):
    """The first ``length`` instructions of ``path`` through the one
    external-trace producer: the spec's replay of its adapter's rows."""
    return resolve_trace_source(str(path), adapter=adapter).build(length)


class TestMemtraceAdapter:
    def test_parses_every_op(self, memtrace_file):
        trace = _parse(memtrace_file, 7)
        assert len(trace) == 7
        assert trace.pcs.tolist() == [
            0x400000, 0x400004, 0x400008, 0x40000C, 0x400010, 0x400014, 1024,
        ]
        assert trace.addrs.tolist() == [
            0x10000, 0, 0x10040, 0, 0, 0x10080, 2048,
        ]
        assert trace.flags.tolist() == [
            FLAG_LOAD, 0, FLAG_LOAD | FLAG_DEP, FLAG_BRANCH,
            FLAG_BRANCH | FLAG_MISPRED, FLAG_STORE, FLAG_LOAD,
        ]

    def test_whitespace_delimited(self, tmp_path):
        path = tmp_path / "ws.trace"
        path.write_text("0x400000 L 0x10000\n0x400004  N\n")
        trace = _parse(path, 2)
        assert len(trace) == 2
        assert trace.flags.tolist() == [FLAG_LOAD, 0]

    def test_peek_length_matches_the_rows(self, memtrace_file):
        adapter = MemtraceAdapter()
        assert adapter.peek_length(memtrace_file) == 7
        assert sum(len(pcs) for pcs, _, _ in
                   adapter.iter_rows(memtrace_file, batch=3)) == 7
        assert _parse(memtrace_file, 7).metadata["native_length"] == 7

    @pytest.mark.parametrize("line,match", [
        ("0x400000,L", "requires an ADDR"),
        ("0x400000,N,0x10", "takes no ADDR"),
        ("0x400000,X,0x10", "unknown op"),
        ("zzz,L,0x10", "decimal or 0x-hex"),
        ("0x400000,L,0x10,extra", "expected PC,OP"),
        ("0x400000", "expected PC,OP"),
    ])
    def test_malformed_lines_name_line_number(self, tmp_path, line, match):
        path = tmp_path / "bad.csv"
        path.write_text("0x400000,N\n" + line + "\n")
        with pytest.raises(TraceImportError, match=match) as excinfo:
            _parse(path, 2)
        assert "bad.csv:2" in str(excinfo.value)

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# only comments\n\n")
        with pytest.raises(TraceImportError, match="empty memtrace"):
            _parse(path, 1)

    def test_binary_file_is_a_clean_error(self, tmp_path):
        path = tmp_path / "binary.csv"
        path.write_bytes(bytes(range(256)) * 4)
        with pytest.raises(TraceImportError, match="not a text memtrace"):
            _parse(path, 1)


class TestNpzAdapter:
    def test_round_trip_from_synthetic(self, tmp_path):
        original = build_trace(find_workload("ligra.BFS.0"), 2_000)
        path = save_trace(original, tmp_path / "bfs.npz")
        loaded = _parse(path, 2_000)
        assert np.array_equal(loaded.pcs, original.pcs)
        assert np.array_equal(loaded.addrs, original.addrs)
        assert np.array_equal(loaded.flags, original.flags)
        assert NpzAdapter().peek_length(path) == 2_000

    def test_corrupt_archive_is_an_import_error(self, tmp_path):
        path = tmp_path / "corrupt.npz"
        path.write_bytes(b"PK\x03\x04 definitely not a trace")
        with pytest.raises(TraceImportError, match="not a trace archive"):
            _parse(path, 1)
        with pytest.raises(TraceImportError, match="not a trace archive"):
            NpzAdapter().peek_length(path)


class TestTraceSources:
    def test_uri_round_trip(self):
        uri = trace_source("runs/foo.csv", name="foo42",
                           adapter="memtrace", params={"delimiter": ","})
        path, name, adapter, params = parse_trace_source(uri)
        assert (path, name, adapter) == ("runs/foo.csv", "foo42", "memtrace")
        assert params == {"delimiter": ","}

    def test_resolve_picks_adapter_by_suffix(self, memtrace_file, tmp_path):
        spec = resolve_trace_source(f"trace://{memtrace_file}")
        assert dict(spec.params)["adapter"] == "memtrace"
        npz = save_trace(build_trace(find_workload("ligra.BFS.0"), 500),
                         tmp_path / "t.npz")
        assert dict(resolve_trace_source(
            f"trace://{npz}").params)["adapter"] == "npz"

    def test_missing_file_is_an_error(self):
        with pytest.raises(TraceImportError, match="not found"):
            resolve_trace_source("trace:///no/such/file.csv")

    def test_unknown_adapter_is_an_error(self, memtrace_file):
        with pytest.raises(TraceImportError, match="unknown trace adapter"):
            resolve_trace_source(f"trace://{memtrace_file}?adapter=bogus")

    def test_bad_adapter_option_is_an_error(self, memtrace_file):
        with pytest.raises(TraceImportError, match="bad options"):
            resolve_trace_source(f"trace://{memtrace_file}?bogus_opt=1")

    def test_identity_excludes_path_includes_content(
        self, memtrace_file, tmp_path
    ):
        """Same bytes at another path → same fingerprint; changed bytes
        at the same path → different fingerprint."""
        spec = resolve_trace_source(f"trace://{memtrace_file}")
        copy = tmp_path / "elsewhere" / memtrace_file.name
        copy.parent.mkdir()
        shutil.copy(memtrace_file, copy)
        moved = resolve_trace_source(f"trace://{copy}")
        assert moved.params == spec.params
        assert fingerprint(moved, 100) == fingerprint(spec, 100)

        memtrace_file.write_text(MEMTRACE + "0x400018,N\n")
        changed = resolve_trace_source(f"trace://{memtrace_file}")
        assert changed.params != spec.params
        assert fingerprint(changed, 100) != fingerprint(spec, 100)

    def test_uri_round_trips_awkward_filenames(self, tmp_path):
        """Paths with %, spaces, and '?' survive the printed reference."""
        path = tmp_path / "my %20 odd? file.csv"
        path.write_text("0x400000,N\n")
        outcome = import_trace(str(path), name="odd")
        spec = find_workload(outcome.source)
        assert spec.params == outcome.spec.params
        assert pathlib.Path(spec.path) == path

    def test_explicit_name_survives_file_rename(self, memtrace_file,
                                                tmp_path):
        """``?name=`` pins the identity across a file rename (the
        default name is the stem, so renaming would change it)."""
        spec = resolve_trace_source(f"trace://{memtrace_file}?name=pinned")
        renamed = tmp_path / "renamed.csv"
        memtrace_file.rename(renamed)
        after = resolve_trace_source(f"trace://{renamed}?name=pinned")
        assert after.params == spec.params
        assert fingerprint(after, 50) == fingerprint(spec, 50)

    def test_find_workload_resolves_trace_sources(self, memtrace_file):
        spec = find_workload(f"trace://{memtrace_file}")
        assert isinstance(spec, ExternalTraceSpec)
        assert spec.name == "demo"
        assert spec.pattern == "external"

    def test_build_replays_short_traces_to_length(self, memtrace_file):
        spec = find_workload(f"trace://{memtrace_file}?name=rep")
        trace = spec.build(20)
        assert len(trace) == 20
        assert trace.name == "rep"
        # the 7-instruction native trace tiles: position 7 repeats 0
        assert trace.pcs[7] == trace.pcs[0]
        assert trace.metadata["native_length"] == 7

    def test_build_detects_content_drift(self, memtrace_file):
        spec = find_workload(f"trace://{memtrace_file}")
        memtrace_file.write_text("0x1,N\n")
        with pytest.raises(TraceImportError, match="content changed"):
            spec.build(10)


class TestImport:
    def test_reimport_is_a_cache_hit(self, memtrace_file, fresh_cache):
        first = import_trace(str(memtrace_file))
        assert not first.cached
        assert fresh_cache.stats.builds == 1
        again = import_trace(str(memtrace_file))
        assert again.cached
        assert fresh_cache.stats.builds == 1
        assert fresh_cache.stats.hits == 1
        assert again.fingerprint == first.fingerprint

    def test_reimport_hits_the_disk_tier_across_processes(
        self, memtrace_file, tmp_path
    ):
        """A second cache (fresh process stand-in) loads the imported
        trace from ``REPRO_TRACE_DIR`` instead of re-parsing."""
        disk = tmp_path / "traces"
        reset_trace_cache(TraceCache(disk_dir=disk))
        import_trace(str(memtrace_file))
        cache = reset_trace_cache(TraceCache(disk_dir=disk))
        outcome = import_trace(str(memtrace_file))
        assert outcome.cached
        assert cache.stats.disk_hits == 1
        assert cache.stats.builds == 0

    def test_import_source_is_pasteable(self, memtrace_file):
        outcome = import_trace(str(memtrace_file), name="renamed")
        spec = find_workload(outcome.source)
        assert spec.name == "renamed"
        assert spec.params == outcome.spec.params


class TestEngineKeys:
    def test_spec_keys_stable_across_invocations(self, memtrace_file):
        """Acceptance: two independent resolutions of a spec referencing
        an external trace produce identical engine content-hash keys."""
        source = f"trace://{memtrace_file}"
        spec = {"runs": [{"workload": source, "trace_length": 400,
                          "epoch_length": 100}]}
        first = ExperimentSpec.from_dict(dict(spec, name="e"))
        second = ExperimentSpec.from_dict(dict(spec, name="e"))
        assert first.content_key() == second.content_key()
        with Session(scale="tiny") as session:
            keys_a = [r.key() for r in first.runs[0].plan(session.context)]
        with Session(scale="tiny") as session:
            keys_b = [r.key() for r in second.runs[0].plan(session.context)]
        assert keys_a == keys_b

    def test_warm_pass_executes_nothing(self, memtrace_file, tmp_path,
                                        fresh_cache):
        """Acceptance: the second run of a spec over an imported trace
        executes zero simulations and zero trace builds."""
        store = tmp_path / "results.sqlite"
        run = RunSpec(workload=f"trace://{memtrace_file}",
                      trace_length=400, epoch_length=100,
                      warmup_fraction=0.2)
        with Session(Engine(store=ResultStore(store)),
                     scale="tiny") as session:
            cold = session.run(run)
            assert not cold.cached
        builds_before = fresh_cache.stats.builds
        assert builds_before > 0
        with Session(Engine(store=ResultStore(store)),
                     scale="tiny") as session:
            warm = session.run(run)
            assert warm.cached
            assert session.counters.executed == 0
            assert warm.speedup == cold.speedup
        assert fresh_cache.stats.builds == builds_before

    def test_spec_error_on_missing_file(self):
        with pytest.raises(SpecError, match="not found"):
            RunSpec(workload="trace:///no/such.csv")


class TestAdapterPlugins:
    def test_adapter_for_path_reads_plugin_suffixes(self, tmp_path):
        @register_trace_adapter("unit_test_suffix_adapter")
        class SuffixAdapter(NpzAdapter):
            suffixes = (".unittest",)

        assert adapter_for_path(tmp_path / "x.UNITTEST") == \
            "unit_test_suffix_adapter"
        assert adapter_for_path(tmp_path / "x.npz") == "npz"
        assert adapter_for_path(tmp_path / "x.unknown") == "memtrace"

    def test_register_trace_adapter_decorator(self, tmp_path):
        @register_trace_adapter("constant", replace=True)
        class ConstantAdapter:
            """Every instruction is the same load (test fixture)."""

            def peek_length(self, path):
                return 4

            def iter_rows(self, path):
                yield (np.full(4, 7, np.int64), np.full(4, 64, np.int64),
                       np.full(4, FLAG_LOAD, np.uint8))

        assert ("trace_adapter", "constant") in registry
        path = tmp_path / "x.anything"
        path.write_text("ignored")
        outcome = import_trace(str(path), adapter="constant")
        assert len(outcome.trace) == 4

    def test_plugin_registration_does_not_leak(self, tmp_path):
        # Runs right after the decorator test above: its "constant"
        # adapter must be gone, or the registry listing (and every test
        # pinning it, such as test_api's test_kinds_populated) depends
        # on file order.
        assert registry.names("trace_adapter") == ["memtrace", "npz"]
        path = tmp_path / "x.anything"
        path.write_text("ignored")
        with pytest.raises(TraceImportError, match="unknown trace adapter"):
            import_trace(str(path), adapter="constant")

    def test_plugin_adapter_imports_builds_and_streams(self, tmp_path):
        """The adapter protocol is ``peek_length`` + ``iter_rows``: a
        plugin implementing only those serves every consumer."""

        @register_trace_adapter("counting", replace=True)
        class CountingAdapter:
            """Loads of consecutive lines, 3 rows per batch."""

            def peek_length(self, path):
                return 10

            def iter_rows(self, path):
                for lo in range(0, 10, 3):
                    pcs = np.arange(lo, min(lo + 3, 10), dtype=np.int64)
                    yield (pcs, pcs << 6,
                           np.full(len(pcs), FLAG_LOAD, np.uint8))

        path = tmp_path / "x.count"
        path.write_text("ignored")
        outcome = import_trace(str(path), adapter="counting")
        assert outcome.trace.pcs.tolist() == list(range(10))
        spec = find_workload(f"trace://{path}?adapter=counting")
        built = spec.build(25)
        assert built.pcs.tolist() == (list(range(10)) * 3)[:25]
        assert built.metadata["native_length"] == 10
        for block in (1, 4, 25):
            stream = spec.stream(25, block)
            assert all(len(b) == block for b in list(stream)[:-1])
            streamed = stream.materialize()
            assert streamed.name == built.name
            assert streamed.metadata == built.metadata
            np.testing.assert_array_equal(streamed.addrs, built.addrs)
        stream = stream_trace(spec, 25, 4)
        assert sum(len(b) for b in stream) == 25


class TestExtendedFamilies:
    @pytest.mark.parametrize(
        "spec", extended_workloads(),
        ids=[s.name for s in extended_workloads()],
    )
    def test_scalar_and_vectorized_digests_agree(self, spec):
        """Digest stability between the emitters and the reference loops,
        beyond the golden file: rebuild live and compare directly."""
        length = 3_111  # deliberately not a golden length
        vectorized = spec.build(length)
        scalar = scalar_oracle.build(spec, length)
        assert trace_goldens.trace_digest(vectorized) == \
            trace_goldens.trace_digest(scalar)
        assert len(vectorized) == length

    def test_extended_suite_is_registered(self):
        assert [s.suite for s in extended_workloads()] == ["extended"] * 12
        assert find_workload("ext.phase_shift.0") is extended_workloads()[0]

    def test_sharing_mixes_share_ring_lines(self):
        # A producer_consumer ring's base comes from region_seed when it
        # is set: a peer core pinning the same region (own seed) writes
        # overlapping lines, while specs on their own seeds do not.
        def ring(spec):
            trace = build_trace(spec, 2_000)
            stores = (trace.flags & FLAG_STORE) != 0
            return set((trace.addrs[stores] >> 6).tolist())

        pinned = find_workload("ext.producer_consumer.3")
        assert dict(pinned.params)["region_seed"] == 424242
        peer = dataclasses.replace(pinned, name="ext.producer_consumer.peer",
                                   seed=pinned.seed + 1)
        assert ring(pinned) & ring(peer)
        assert not ring(find_workload("ext.producer_consumer.0")) \
            & ring(find_workload("ext.producer_consumer.2"))

    def test_sharing_mix_specs_are_content_addressable(self):
        # both cores of a shared-ring pair stay content-addressable,
        # with distinct identities
        pinned = find_workload("ext.producer_consumer.3")
        peer = dataclasses.replace(pinned, name="ext.producer_consumer.peer",
                                   seed=pinned.seed + 1)
        for spec in (pinned, peer):
            assert fingerprint(spec, 1_000) == fingerprint(spec, 1_000)
        assert fingerprint(pinned, 1_000) != fingerprint(peer, 1_000)
