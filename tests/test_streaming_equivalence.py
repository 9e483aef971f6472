"""Chunk-boundary equivalence battery for the streaming trace substrate.

The streaming path (:mod:`repro.workloads.streaming`, the trace
cache's cold stream tier, the block loop of ``Simulator`` and of
``MultiCoreSimulator``) must be *bit-identical* to the materialized
reference at every block size.
This suite pins that invariant from four directions:

- every golden trace digest (``tests/golden/trace_hashes.json``)
  reproduces when the trace is emitted block-at-a-time, at block sizes
  {1, 64, 1024, full} and at adversarial sizes (1, 7, prime, len-1,
  len, len+1, > len) across all twelve workload families;
- every golden simulation payload (``tests/golden/*.json``) reproduces
  when the engine executes streamed (``REPRO_STREAM_BLOCK``), single-
  and multi-core, at block sizes {1, 64, 1024, full};
- producer/consumer mixes whose sync events straddle chunk edges
  produce payload-identical results streamed vs materialized;
- warmup checkpoints, taken on a streamed or a materialized run,
  re-enter the measured region with stats identical to an uninterrupted
  run, including through the durable queue after a worker crash.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

import golden_cases
import scalar_oracle
import trace_goldens

from repro.engine import Engine, JobQueue, ResultStore
from repro.engine.faults import ExecutionPolicy
from repro.engine.jobs import (
    MixRequest,
    RunRequest,
    _build_policy,
    encode_result,
)
from repro.experiments.configs import CacheDesign, build_hierarchy
from repro.sim.simulator import Simulator
from repro.workloads import generators
from repro.workloads.generators import WORKLOAD_PLANS
from repro.workloads.ingest import resolve_trace_source
from repro.workloads.streaming import (
    TraceStream,
    blocks_from_trace,
    reblock,
    trace_blocks,
)
from repro.workloads.suites import find_workload
from repro.workloads.tracecache import TraceCache, reset_trace_cache
from repro.workloads.traceio import save_trace
from test_hotpath_equivalence import _describe_diff

GOLDEN_DIGESTS = json.loads(trace_goldens.GOLDEN_PATH.read_text())
SPECS = trace_goldens.all_specs()

#: the acceptance grid: pathological, small, realistic, and whole-trace.
BLOCK_SIZES = (1, 64, 1024, None)


def _block_ids(sizes):
    return [f"b{size}" if size else "bfull" for size in sizes]


def _golden_digest(spec, length):
    return GOLDEN_DIGESTS[trace_goldens.case_key(spec, length)]


@pytest.fixture()
def fresh_cache():
    """A memory-only process cache, so tier state never leaks between
    tests (streamed golden runs must exercise cold emission, not a
    whole-trace entry left by an earlier test)."""
    cache = reset_trace_cache(TraceCache(max_bytes=1 << 30, disk_dir=None))
    yield cache
    reset_trace_cache()


# ---------------------------------------------------------------------------
# trace digests: all specs, all golden lengths, acceptance block sizes
# ---------------------------------------------------------------------------

class TestGoldenDigestsStreamed:
    @pytest.mark.parametrize("block_size", BLOCK_SIZES,
                             ids=_block_ids(BLOCK_SIZES))
    def test_all_specs_reproduce_golden_digests(self, block_size):
        """All 288 golden digests reproduce at every acceptance block
        size.  Loops internally (1152 builds) to keep collection cheap;
        reports every mismatch, not just the first."""
        mismatches = []
        for spec in SPECS:
            for length in trace_goldens.LENGTHS:
                block = block_size or length
                trace = spec.stream(length, block).materialize()
                if trace_goldens.trace_digest(trace) != \
                        _golden_digest(spec, length):
                    mismatches.append(f"{spec.name}@{length} block={block}")
        assert not mismatches, (
            f"{len(mismatches)} streamed digests diverge from golden: "
            + ", ".join(mismatches[:10])
        )

    def test_battery_covers_the_recorded_golden_set(self):
        assert len(SPECS) * len(trace_goldens.LENGTHS) == len(GOLDEN_DIGESTS)


# ---------------------------------------------------------------------------
# adversarial block sizes across every workload family
# ---------------------------------------------------------------------------

def _family_representatives():
    reps = {}
    for spec in SPECS:
        reps.setdefault(spec.pattern, spec)
    return reps


_REPS = _family_representatives()
_ADV_LENGTH = 2_500
#: 1, small coprime, prime, len-1, len, len+1, > len.
_ADVERSARIAL = (1, 7, 997, _ADV_LENGTH - 1, _ADV_LENGTH,
                _ADV_LENGTH + 1, 20_000)


class TestAdversarialBlockSizes:
    def test_every_family_is_represented(self):
        assert set(_REPS) == set(WORKLOAD_PLANS)

    @pytest.mark.parametrize(
        "spec", list(_REPS.values()),
        ids=[f"{p}:{s.name}" for p, s in _REPS.items()])
    def test_digest_invariant_under_block_size(self, spec):
        want = _golden_digest(spec, _ADV_LENGTH)
        for block in _ADVERSARIAL:
            stream = spec.stream(_ADV_LENGTH, block)
            blocks = list(stream)
            # structural invariants: contiguous, aligned, full-size
            # except the tail, summing to exactly the trace length.
            assert [b.index for b in blocks] == list(range(len(blocks)))
            assert [b.start for b in blocks] == \
                [i * block for i in range(len(blocks))]
            assert all(len(b) == block for b in blocks[:-1])
            assert sum(len(b) for b in blocks) == _ADV_LENGTH
            pcs = np.concatenate([b.pcs for b in blocks])
            addrs = np.concatenate([b.addrs for b in blocks])
            flags = np.concatenate([b.flags for b in blocks])
            digest = trace_goldens.trace_digest(
                type("T", (), {"pcs": pcs, "addrs": addrs, "flags": flags}))
            assert digest == want, f"{spec.name} diverges at block={block}"

    def test_overshoot_truncation_renames_like_the_builder(self):
        """The emitters overshoot non-round lengths; the stream
        must apply the same truncation rename as the materialized
        builder so metadata-sensitive consumers agree."""
        spec = _REPS["streaming"]
        length = 2_501
        built = spec.build(length)
        stream = spec.stream(length, 64)
        streamed = stream.materialize()
        assert streamed.name == built.name
        assert len(streamed) == len(built) == length
        assert trace_goldens.trace_digest(streamed) == \
            trace_goldens.trace_digest(built)


# ---------------------------------------------------------------------------
# sub-batch seams inside the generators
# ---------------------------------------------------------------------------

_SEAM_LENGTH = 49_999


class TestSubBatchSeams:
    """The vectorized emitters resume from carried state at every
    sub-batch seam.  The golden lengths cross few production-size seams,
    so more are forced two ways: tiny sub-batches at the golden lengths,
    and long traces across many production sub-batches against the
    reference loops (``tests/scalar_oracle.py``)."""

    @pytest.mark.parametrize("sub_rows", (1, 7, 997))
    def test_tiny_sub_batches_reproduce_golden_digests(
            self, sub_rows, monkeypatch):
        monkeypatch.setattr(generators, "_SUB_ROWS", sub_rows)
        mismatches = []
        for spec in _REPS.values():
            want = _golden_digest(spec, _ADV_LENGTH)
            built = spec.build(_ADV_LENGTH)
            streamed = spec.stream(_ADV_LENGTH, 64).materialize()
            for how, trace in (("built", built), ("streamed", streamed)):
                if trace_goldens.trace_digest(trace) != want:
                    mismatches.append(f"{spec.name} {how}")
        assert not mismatches, (
            f"sub-batch {sub_rows} diverges from golden: "
            + ", ".join(mismatches))

    def test_all_specs_reproduce_golden_digests_across_seams(
            self, monkeypatch):
        """Every golden digest, with seams inside both golden lengths."""
        monkeypatch.setattr(generators, "_SUB_ROWS", 997)
        mismatches = [
            f"{spec.name}@{length}"
            for spec in SPECS
            for length in trace_goldens.LENGTHS
            if trace_goldens.trace_digest(spec.build(length))
            != _golden_digest(spec, length)
        ]
        assert not mismatches, (
            f"{len(mismatches)} digests diverge across sub-batch seams: "
            + ", ".join(mismatches[:10]))

    @pytest.mark.parametrize(
        "spec", list(_REPS.values()),
        ids=[f"{p}:{s.name}" for p, s in _REPS.items()])
    def test_long_trace_matches_the_scalar_oracle(self, spec):
        assert _SEAM_LENGTH > 10 * generators._SUB_ROWS
        want = scalar_oracle.build(spec, _SEAM_LENGTH)
        built = spec.build(_SEAM_LENGTH)
        streamed = spec.stream(_SEAM_LENGTH, 4_096).materialize()
        for trace in (built, streamed):
            assert trace.name == want.name
            np.testing.assert_array_equal(trace.pcs, want.pcs)
            np.testing.assert_array_equal(trace.addrs, want.addrs)
            np.testing.assert_array_equal(trace.flags, want.flags)


# ---------------------------------------------------------------------------
# golden simulation payloads through the engine's streaming gate
# ---------------------------------------------------------------------------

class TestGoldenPayloadsStreamed:
    """Every recorded golden case — 8 single-core runs and 3 mixes —
    re-executed through ``RunRequest``/``MixRequest`` with
    ``REPRO_STREAM_BLOCK`` set, at every acceptance block size."""

    @pytest.mark.parametrize("block_size",
                             (1, 64, 1024, golden_cases.TRACE_LENGTH),
                             ids=("b1", "b64", "b1024", "bfull"))
    @pytest.mark.parametrize("name", golden_cases.case_names())
    def test_streamed_execution_reproduces_golden(
            self, name, block_size, monkeypatch, fresh_cache):
        monkeypatch.setenv("REPRO_STREAM_BLOCK", str(block_size))
        got = golden_cases.execute_case(name)
        want = json.loads(golden_cases.golden_path(name).read_text())
        assert got == want, _describe_diff(got, want)
        # the gate streamed: the run was a cold build, never a re-block
        # of a materialized cache entry.
        assert fresh_cache.stats.builds >= 1
        assert fresh_cache.stats.hits == 0


# ---------------------------------------------------------------------------
# sync events straddling chunk edges
# ---------------------------------------------------------------------------

class TestSyncStraddle:
    """producer_consumer emits periodic sync pairs (``sync_every``); at
    coprime block sizes those events land on and straddle chunk edges.
    Streamed execution must match materialized payloads exactly."""

    STRADDLE_BLOCKS = (7, 64, 997)

    def _payloads(self, request, monkeypatch, fresh_cache):
        monkeypatch.delenv("REPRO_STREAM_BLOCK", raising=False)
        want = json.loads(json.dumps(encode_result(request.execute())))
        got = {}
        for block in self.STRADDLE_BLOCKS:
            reset_trace_cache(TraceCache(max_bytes=1 << 30, disk_dir=None))
            monkeypatch.setenv("REPRO_STREAM_BLOCK", str(block))
            got[block] = json.loads(json.dumps(
                encode_result(request.execute())))
        return want, got

    def test_single_core(self, monkeypatch, fresh_cache):
        request = RunRequest(
            spec=find_workload("ext.producer_consumer.0"),
            trace_length=2_000,
            design=CacheDesign.cd1(),
            policy_name="tlp",
            epoch_length=150,
            warmup_fraction=0.35,
        )
        want, got = self._payloads(request, monkeypatch, fresh_cache)
        for block, payload in got.items():
            assert payload == want, \
                f"block={block}: {_describe_diff(payload, want)}"

    def test_two_core_mix(self, monkeypatch, fresh_cache):
        request = MixRequest(
            workloads=(find_workload("ext.producer_consumer.0"),
                       find_workload("ext.producer_consumer.3")),
            trace_length=2_000,
            design=CacheDesign.cd1(),
            policy_name="tlp",
            epoch_length=150,
            warmup_fraction=0.2,
        )
        want, got = self._payloads(request, monkeypatch, fresh_cache)
        for block, payload in got.items():
            assert payload == want, \
                f"block={block}: {_describe_diff(payload, want)}"


# ---------------------------------------------------------------------------
# the cold stream tier
# ---------------------------------------------------------------------------

class TestColdStreamTier:
    @pytest.fixture()
    def disk_cache(self, tmp_path):
        cache = reset_trace_cache(
            TraceCache(max_bytes=1 << 30, disk_dir=tmp_path / "traces"))
        yield cache
        reset_trace_cache()

    SPEC_NAME = "spec06.libquantum_like.0"
    LENGTH = 1_200
    BLOCK = 256

    def _stream(self, cache):
        spec = find_workload(self.SPEC_NAME)
        return cache.stream(spec, self.LENGTH, self.BLOCK)

    def _built(self):
        return find_workload(self.SPEC_NAME).build(self.LENGTH)

    def test_cold_stream_persists_nothing(self, disk_cache):
        trace = self._stream(disk_cache).materialize()
        assert disk_cache.stats.builds == 1
        assert disk_cache.stats.chunk_hits == 0
        disk = disk_cache.disk_dir
        assert not disk.exists() or not any(disk.iterdir())
        assert trace_goldens.trace_digest(trace) == \
            trace_goldens.trace_digest(self._built())

    def test_second_traversal_rebuilds_identical_blocks(self, disk_cache):
        stream = self._stream(disk_cache)
        first = list(stream)
        second = list(stream)
        assert disk_cache.stats.builds == 2
        assert [(b.index, b.start) for b in first] == \
            [(b.index, b.start) for b in second]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.pcs, b.pcs)
            np.testing.assert_array_equal(a.addrs, b.addrs)
            np.testing.assert_array_equal(a.flags, b.flags)

    def test_iter_from_re_emits_and_skips_the_prefix(self, disk_cache):
        reference = self._built()
        position = 700  # mid-block: block 2 must arrive trimmed
        tail = list(self._stream(disk_cache).iter_from(position))
        assert tail[0].start == position
        assert disk_cache.stats.builds == 1
        for column in ("pcs", "addrs", "flags"):
            got = np.concatenate([getattr(b, column) for b in tail])
            np.testing.assert_array_equal(
                got, getattr(reference, column)[position:])

    def test_cold_stream_leaves_a_new_process_cold(self, disk_cache):
        self._stream(disk_cache).materialize()
        # a fresh cache over the same directory models a new process:
        # the cold stream stored nothing for it to find.
        fresh = reset_trace_cache(
            TraceCache(max_bytes=1 << 30, disk_dir=disk_cache.disk_dir))
        self._stream(fresh).materialize()
        assert fresh.stats.builds == 1
        assert fresh.stats.disk_hits == 0
        assert fresh.stats.hits == 0

    def test_memory_tier_hit_re_blocks_without_building(self, disk_cache):
        built = disk_cache.get_or_build(
            find_workload(self.SPEC_NAME), self.LENGTH)
        stream = self._stream(disk_cache)
        assert disk_cache.stats.hits == 1
        assert disk_cache.stats.builds == 1  # the get_or_build only
        blocks = list(stream)
        assert [b.start for b in blocks] == \
            list(range(0, self.LENGTH, self.BLOCK))
        np.testing.assert_array_equal(
            np.concatenate([b.addrs for b in blocks]), built.addrs)
        tail = list(stream.iter_from(700))
        assert tail[0].start == 700
        np.testing.assert_array_equal(
            np.concatenate([b.addrs for b in tail]), built.addrs[700:])
        assert disk_cache.stats.builds == 1

    def test_whole_trace_disk_tier_serves_a_new_process(self, disk_cache):
        built = disk_cache.get_or_build(
            find_workload(self.SPEC_NAME), self.LENGTH)
        fresh = reset_trace_cache(
            TraceCache(max_bytes=1 << 30, disk_dir=disk_cache.disk_dir))
        streamed = self._stream(fresh).materialize()
        assert fresh.stats.disk_hits == 1
        assert fresh.stats.builds == 0
        assert trace_goldens.trace_digest(streamed) == \
            trace_goldens.trace_digest(built)

    def test_cold_stream_applies_the_overshoot_rename(self, disk_cache):
        spec = find_workload(self.SPEC_NAME)
        length = 2_447  # the emitters overshoot this length
        built = spec.build(length)
        assert built.name == f"{spec.name}[0:{length}]"
        stream = disk_cache.stream(spec, length, self.BLOCK)
        streamed = stream.materialize()
        assert disk_cache.stats.builds == 1
        assert stream.name == streamed.name == built.name
        assert trace_goldens.trace_digest(streamed) == \
            trace_goldens.trace_digest(built)


# ---------------------------------------------------------------------------
# stream primitives
# ---------------------------------------------------------------------------

class TestStreamPrimitives:
    def _trace(self, length=100):
        return find_workload("spec06.libquantum_like.0").build(length)

    def test_blocks_from_trace_round_trips(self):
        trace = self._trace(100)
        blocks = list(blocks_from_trace(trace, 7))
        assert len(blocks) == -(-100 // 7)
        assert sum(len(b) for b in blocks) == 100
        np.testing.assert_array_equal(
            np.concatenate([b.pcs for b in blocks]), trace.pcs)

    def test_blocks_from_trace_seeks_by_block(self):
        trace = self._trace(100)
        blocks = list(blocks_from_trace(trace, 32, start_index=2))
        assert blocks[0].index == 2
        assert blocks[0].start == 64
        np.testing.assert_array_equal(blocks[0].addrs, trace.addrs[64:96])

    def test_iter_from_trims_the_first_block(self):
        trace = self._trace(100)
        stream = TraceStream(
            name=trace.name, suite=trace.suite, length=100, block_size=32,
            factory=lambda: blocks_from_trace(trace, 32))
        tail = list(stream.iter_from(70))
        assert tail[0].start == 70
        got = np.concatenate([b.addrs for b in tail])
        np.testing.assert_array_equal(got, trace.addrs[70:])

    def test_iter_from_zero_is_the_whole_stream(self):
        trace = self._trace(100)
        stream = TraceStream(
            name=trace.name, suite=trace.suite, length=100, block_size=32,
            factory=lambda: blocks_from_trace(trace, 32))
        got = np.concatenate([b.addrs for b in stream.iter_from(0)])
        np.testing.assert_array_equal(got, trace.addrs)

    def test_trace_blocks_starts_a_stream_through_its_iter(
            self, monkeypatch):
        """Both simulators read a stream through ``trace_blocks``; a
        traversal from position 0 must go through ``__iter__``, which
        the benchmark harness wraps for its block timers and
        checkpoints."""
        trace = self._trace(100)
        stream = TraceStream(
            name=trace.name, suite=trace.suite, length=100, block_size=32,
            factory=lambda: blocks_from_trace(trace, 32))
        calls = []
        iterate = TraceStream.__iter__

        def counted(self):
            calls.append(self)
            return iterate(self)

        monkeypatch.setattr(TraceStream, "__iter__", counted)
        got = np.concatenate([b.addrs for b in trace_blocks(stream)])
        np.testing.assert_array_equal(got, trace.addrs)
        assert calls == [stream]
        tail = list(trace_blocks(stream, 70))
        assert tail[0].start == 70
        np.testing.assert_array_equal(
            np.concatenate([b.addrs for b in tail]), trace.addrs[70:])

    def test_reblock_truncates_uneven_pieces_at_the_limit(self):
        def pieces():  # uneven 3-row pieces straddle block edges
            for lo in range(0, 40, 3):
                rows = np.arange(lo, min(lo + 3, 40), dtype=np.int64)
                yield rows, 100 + rows, np.zeros(len(rows), np.uint8)

        blocks = reblock(pieces(), 10, limit=25)
        out = []
        with pytest.raises(StopIteration) as done:
            while True:
                out.append(next(blocks))
        assert done.value.value == 40  # counts all offered rows
        assert [len(b) for b in out] == [10, 10, 5]
        assert [b.start for b in out] == [0, 10, 20]
        assert [b.index for b in out] == [0, 1, 2]
        np.testing.assert_array_equal(
            np.concatenate([b.pcs for b in out]), np.arange(25))
        np.testing.assert_array_equal(
            np.concatenate([b.addrs for b in out]), 100 + np.arange(25))

    def test_reblock_respects_the_limit(self):
        trace = self._trace(100)
        rows = [(trace.pcs[i:i + 13], trace.addrs[i:i + 13],
                 trace.flags[i:i + 13]) for i in range(0, 100, 13)]
        blocks = list(reblock(iter(rows), 8, limit=50))
        assert sum(len(b) for b in blocks) == 50
        got = np.concatenate([b.pcs for b in blocks])
        np.testing.assert_array_equal(got, trace.pcs[:50])


# ---------------------------------------------------------------------------
# warmup checkpoints
# ---------------------------------------------------------------------------

class TestWarmupCheckpoint:
    CASE = ("spec06.mcf_like.0", "athena")
    LENGTH = golden_cases.TRACE_LENGTH
    WARMUP_END = int(LENGTH * golden_cases.WARMUP_FRACTION)

    def _stream(self, block=512):
        return find_workload(self.CASE[0]).stream(self.LENGTH, block)

    def _simulator(self, trace=None):
        return Simulator(
            self._stream() if trace is None else trace,
            build_hierarchy(CacheDesign.cd1()),
            policy=_build_policy(self.CASE[1], None, ()),
            epoch_length=golden_cases.EPOCH_LENGTH,
            warmup_fraction=golden_cases.WARMUP_FRACTION,
        )

    def _golden(self):
        name = f"run__{self.CASE[0]}__{self.CASE[1]}"
        return json.loads(golden_cases.golden_path(name).read_text())

    @staticmethod
    def _payload(result):
        return json.loads(json.dumps(encode_result(result)))

    @pytest.mark.parametrize("position", (137, 2_100, 5_999),
                             ids=("mid-warmup", "warmup-end", "last"))
    def test_resume_matches_the_uninterrupted_run(self, position):
        assert self.WARMUP_END == 2_100  # mid-warmup/after split is real
        sim = self._simulator()
        uninterrupted = sim.run(checkpoint_at=position)
        golden = self._golden()
        assert self._payload(uninterrupted) == golden
        checkpoint = sim.checkpoint
        assert checkpoint is not None
        assert checkpoint.position == position
        resumed = Simulator.resume(self._stream(), checkpoint)
        assert self._payload(resumed) == golden

    def test_checkpoint_resumes_more_than_once(self):
        sim = self._simulator()
        sim.run(checkpoint_at=1_000)
        checkpoint = sim.checkpoint
        first = self._payload(Simulator.resume(self._stream(), checkpoint))
        second = self._payload(Simulator.resume(self._stream(), checkpoint))
        assert first == second == self._golden()

    @pytest.mark.parametrize("position", (137, 2_100, 5_999),
                             ids=("mid-warmup", "warmup-end", "last"))
    def test_materialized_run_checkpoints_and_resumes(self, position):
        trace = find_workload(self.CASE[0]).build(self.LENGTH)
        sim = self._simulator(trace)
        golden = self._golden()
        assert self._payload(sim.run(checkpoint_at=position)) == golden
        checkpoint = sim.checkpoint
        assert checkpoint.position == position
        assert self._payload(Simulator.resume(trace, checkpoint)) == golden
        stream = TraceStream(trace.name, trace.suite, len(trace), 512,
                             lambda: blocks_from_trace(trace, 512))
        assert self._payload(Simulator.resume(stream, checkpoint)) == golden

    @pytest.mark.parametrize("position", (0, -5, LENGTH + 1))
    def test_checkpoint_position_must_be_in_range(self, position):
        sim = self._simulator()
        with pytest.raises(ValueError, match="checkpoint_at"):
            sim.run(checkpoint_at=position)


# ---------------------------------------------------------------------------
# external traces: the adapter's rows, built and streamed
# ---------------------------------------------------------------------------

EXAMPLE_TRACE = (pathlib.Path(__file__).resolve().parents[1]
                 / "examples" / "example_trace.csv")

#: native instruction count of the memtrace fixture below
_MEMTRACE_NATIVE = 37
_NPZ_NATIVE = 50


def _memtrace_text(rows):
    ops = ("L,0x{:x}", "N", "S,0x{:x}", "B", "D,0x{:x}", "M")
    lines = ["# pc,op[,addr]"]
    for i in range(rows):
        op = ops[i % len(ops)].format(0x10000 + 64 * (i * 7 % 13))
        lines.append(f"0x{0x400000 + 4 * i:x},{op}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def external_specs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("external")
    csv = directory / "ext.csv"
    csv.write_text(_memtrace_text(_MEMTRACE_NATIVE))
    npz = save_trace(find_workload("ligra.BFS.0").build(_NPZ_NATIVE),
                     directory / "ext.npz")
    return {
        "memtrace": (resolve_trace_source(str(csv)), _MEMTRACE_NATIVE),
        "npz": (resolve_trace_source(str(npz)), _NPZ_NATIVE),
    }


class TestExternalStreams:
    """An external spec has one producer, its adapter's rows replayed to
    the requested length: ``build(n)`` is the native trace tiled and cut
    to ``n``, and ``stream(n, b).materialize()`` equals it below, at and
    above the native length, at any block size."""

    @pytest.mark.parametrize("adapter", ("memtrace", "npz"))
    def test_stream_materializes_to_the_build(
            self, adapter, external_specs, fresh_cache):
        spec, native = external_specs[adapter]
        once = spec.build(native)
        # below, equal, a multiple above, and two non-multiples above
        for length in (native - 10, native, 2 * native, 2 * native + 5,
                       3 * native + 1):
            built = spec.build(length)
            for column in ("pcs", "addrs", "flags"):
                tiled = np.tile(getattr(once, column), 4)
                np.testing.assert_array_equal(getattr(built, column),
                                              tiled[:length])
            assert built.name == spec.name
            assert built.metadata["native_length"] == native
            assert built.metadata["adapter"] == adapter
            for block in (1, 7, length):
                streamed = spec.stream(length, block).materialize()
                where = f"{adapter} length={length} block={block}"
                assert streamed.name == built.name, where
                assert streamed.suite == built.suite, where
                assert streamed.metadata == built.metadata, where
                for column in ("pcs", "addrs", "flags"):
                    np.testing.assert_array_equal(
                        getattr(streamed, column), getattr(built, column),
                        err_msg=where)

    def test_streamed_run_payload_matches_materialized(
            self, monkeypatch, fresh_cache):
        request = RunRequest(
            spec=find_workload(f"trace://{EXAMPLE_TRACE}"),
            trace_length=1_500,
            design=CacheDesign.cd1(),
            policy_name="athena",
            epoch_length=150,
            warmup_fraction=0.35,
        )
        monkeypatch.delenv("REPRO_STREAM_BLOCK", raising=False)
        want = json.dumps(encode_result(request.execute()), sort_keys=True)
        for block in (97, 1_500):
            reset_trace_cache(TraceCache(max_bytes=1 << 30, disk_dir=None))
            monkeypatch.setenv("REPRO_STREAM_BLOCK", str(block))
            got = json.dumps(encode_result(request.execute()),
                             sort_keys=True)
            assert got == want, f"block={block}"


# ---------------------------------------------------------------------------
# crash-resume through the durable queue, streamed
# ---------------------------------------------------------------------------

def _spawn_worker(queue_path, store_path, *, lease_ttl, env_extra=None):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra or {})
    argv = [sys.executable, "-m", "repro", "worker",
            "--queue", str(queue_path), "--store", str(store_path),
            "--lease-ttl", str(lease_ttl)]
    return subprocess.Popen(argv, env=env,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)


FAST = ExecutionPolicy(max_retries=2, backoff_s=0.0, backoff_factor=1.0,
                       jitter_fraction=0.0)


class TestQueueCrashResumeStreamed:
    """A SIGKILLed streamed campaign resumes and lands payloads
    identical to materialized execution — the PR 8 queue path with
    ``REPRO_STREAM_BLOCK`` in the worker environment."""

    def _requests(self):
        design = CacheDesign.cd1()
        return [
            RunRequest(spec=find_workload(w), trace_length=1_500,
                       design=design, policy_name=p, epoch_length=150,
                       warmup_fraction=0.35)
            for w, p in (("ligra.BFS.0", "none"),
                         ("spec06.mcf_like.0", "tlp"))
        ]

    def test_streamed_campaign_survives_sigkill(
            self, tmp_path, monkeypatch, fresh_cache):
        requests = self._requests()
        qpath, spath = tmp_path / "q.sqlite", tmp_path / "s.sqlite"
        with JobQueue(qpath) as q:
            q.dispatch([(r.key(), r) for r in requests], max_retries=2)

        # worker A streams, hangs on its first job (injected), and dies.
        proc = _spawn_worker(
            qpath, spath, lease_ttl=1.0,
            env_extra={"REPRO_FAULTS": "hang=1.0,times=1,hang_s=600",
                       "REPRO_STREAM_BLOCK": "256"})
        try:
            deadline = time.time() + 60
            with JobQueue(qpath) as q:
                while time.time() < deadline:
                    if q.counts()["leased"] >= 1:
                        break
                    time.sleep(0.05)
                else:  # pragma: no cover - diagnostic
                    pytest.fail("worker A never leased a job")
        finally:
            proc.kill()
            proc.wait(timeout=30)

        with JobQueue(qpath) as q:
            [active] = q.leases()
            expires = q.get(active.key).lease_expires
            time.sleep(max(0.0, expires - time.time()) + 0.1)
            requeued, failed = q.reclaim()
            assert failed == []
            assert len(requeued) == 1

            # worker B finishes the campaign, still streaming.
            monkeypatch.setenv("REPRO_STREAM_BLOCK", "256")
            store = ResultStore(spath)
            Engine(store=store, queue=q, resilience=FAST,
                   lease_ttl_s=30.0).worker().run()
            assert q.counts()["done"] == len(requests)

            # payloads are identical to materialized execution.
            monkeypatch.delenv("REPRO_STREAM_BLOCK")
            for request in requests:
                stored = store.get(request.key())
                assert stored is not None
                want = json.loads(json.dumps(
                    encode_result(request.execute())))
                assert stored == want, _describe_diff(stored, want)
            store.close()
