"""Peak-memory ceiling for streamed traces.

A streamed run must never materialize the whole trace: its traced peak
is bounded by O(sub-batch + block_size) — one generator sub-batch with
its decode window, the block being assembled, plus constant simulator
state — regardless of trace length.  The ceilings are checked on a
filler-only family (libquantum, streaming) and on the RNG-chain family
whose decode window is the largest per row (mcf, pointer chase).  The
default tests run scaled down for CI; set ``REPRO_MEMTEST_FULL=1`` to
run the full 10x-current-max trace length (1M instructions, ten times
:data:`repro.bench.TRACE_LENGTH`).
"""

import hashlib
import os
import tracemalloc

import pytest

from repro.experiments.configs import CacheDesign, build_hierarchy
from repro.sim.simulator import Simulator
from repro.workloads.suites import find_workload

pytestmark = pytest.mark.memory_ceiling

SPEC_NAME = "spec06.libquantum_like.0"
#: one filler-only family and one RNG-chain family
CEILING_SPECS = ("spec06.libquantum_like.0", "spec06.mcf_like.0")
BYTES_PER_ROW = 8 + 8 + 1  # int64 pc + int64 addr + uint8 flags


def _consume_peak(length: int, block_size: int,
                  spec_name: str = SPEC_NAME) -> int:
    """Traced peak while digesting a streamed trace block by block."""
    stream = find_workload(spec_name).stream(length, block_size)
    digest = hashlib.sha256()
    tracemalloc.start()
    try:
        for block in stream:
            digest.update(block.pcs.tobytes())
            digest.update(block.addrs.tobytes())
            digest.update(block.flags.tobytes())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _simulate_peak(length: int, block_size: int) -> int:
    """Traced peak of a full streamed :class:`Simulator` run."""
    stream = find_workload(SPEC_NAME).stream(length, block_size)
    sim = Simulator(
        stream,
        build_hierarchy(CacheDesign.cd1()),
        policy=None,
        epoch_length=max(1, length // 4),
        warmup_fraction=0.2,
    )
    tracemalloc.start()
    try:
        sim.run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedMemoryCeiling:
    @pytest.mark.parametrize("spec_name", CEILING_SPECS)
    def test_consumption_peak_is_flat_in_trace_length(self, spec_name):
        """Tripling the trace length must not grow the traced peak:
        only one sub-batch and a block are ever alive at once."""
        block = 1_024
        base = _consume_peak(60_000, block, spec_name)
        tripled = _consume_peak(180_000, block, spec_name)
        # O(sub-batch + block): nowhere near the materialized footprint
        # (~1 MB at the base length alone).
        assert base < 64 * block * BYTES_PER_ROW
        assert tripled < 1.5 * base + 256 * 1024

    @pytest.mark.parametrize("spec_name", CEILING_SPECS)
    def test_consumption_peak_is_far_below_materialized(self, spec_name):
        length, block = 120_000, 1_024
        peak = _consume_peak(length, block, spec_name)
        assert peak < (length * BYTES_PER_ROW) // 4

    def test_simulated_peak_stays_below_materialized_footprint(self):
        """A streamed run's peak is simulator state (caches fill toward
        their fixed capacity) plus O(block_size) of trace — not O(n)."""
        length, block = 60_000, 1_024
        peak = _simulate_peak(length, block)
        # generous: covers the hierarchy's fill state, but a
        # materialized trace regression at 10x length shows up
        # immediately in the full run below.
        assert peak < 4 * 1024 * 1024

    @pytest.mark.skipif(
        os.environ.get("REPRO_MEMTEST_FULL") != "1",
        reason="full 10x-trace-length memory run; set REPRO_MEMTEST_FULL=1",
    )
    def test_full_ten_x_run_is_bounded_by_block_size(self):
        """10x the bench's largest trace_length (100k): a 1M-instruction
        streamed simulation must peak far below the 17 MB a materialized
        trace would occupy."""
        length, block = 1_000_000, 4_096
        materialized_bytes = length * BYTES_PER_ROW
        peak = _simulate_peak(length, block)
        assert peak < materialized_bytes // 2
