"""Simulator counters against numbers worked out by hand.

Each trace is built row by row with :class:`TraceBuilder` and run on a
bare design (no prefetcher, no off-chip predictor), with no policy and
no warmup, so every counter below follows from the access pattern and
the cache geometry alone.
"""

import pytest

from repro.experiments.configs import CacheDesign, build_hierarchy, system_for
from repro.sim.simulator import Simulator
from repro.workloads.trace import LINE_SIZE, TraceBuilder

BARE = CacheDesign("bare", (), None)
PARAMS = system_for(BARE)
PC = 0x400000


def _run(builder):
    sim = Simulator(builder.build(), build_hierarchy(BARE), policy=None,
                    warmup_fraction=0.0)
    return sim.run()


@pytest.mark.parametrize("lines,loads_per_line", [(500, 4), (3_000, 8)])
def test_cold_sweep_misses_once_per_line_at_every_level(lines,
                                                        loads_per_line):
    """N distinct lines, k loads each, never revisited: the first load
    of a line misses L1D, L2C and LLC and reads DRAM once; the other
    k - 1 hit L1D."""
    b = TraceBuilder("cold", "oracle")
    for line in range(lines):
        for k in range(loads_per_line):
            b.load(PC, (1 << 20) + line * LINE_SIZE + 8 * k)
    stats = _run(b).stats
    assert stats.loads == lines * loads_per_line
    assert stats.l1d_hits == lines * (loads_per_line - 1)
    assert stats.l1d_misses == lines
    assert stats.l2c_misses == lines
    assert stats.llc_misses == lines
    assert stats.dram_demand_requests == lines
    assert stats.dram_requests == lines


def test_pure_alu_trace_retires_near_core_width():
    b = TraceBuilder("alu", "oracle")
    b.nop(PC, count=20_000)
    result = _run(b)
    width = PARAMS.core.width
    assert result.instructions == 20_000
    assert result.ipc <= width * (1 + 1e-9)
    assert result.ipc > 0.99 * width
    assert result.stats.dram_requests == 0


def test_l1d_resident_loop_misses_once_per_distinct_line():
    """A loop over half the L1D (consecutive lines fill every set to half
    its ways, so LRU never evicts) misses each line once, then hits."""
    l1d = PARAMS.l1d
    sets = l1d.size_bytes // LINE_SIZE // l1d.ways
    lines = sets * (l1d.ways // 2)
    passes = 10
    b = TraceBuilder("loop", "oracle")
    for _ in range(passes):
        for line in range(lines):
            b.load(PC, (1 << 20) + line * LINE_SIZE)
    stats = _run(b).stats
    assert stats.l1d_misses == lines
    assert stats.l1d_hits == lines * (passes - 1)
    assert stats.llc_misses == lines
    assert stats.dram_demand_requests == lines
