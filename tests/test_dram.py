"""Tests for the banked DRAM bandwidth model.

Every case goes through the simulator's own request path,
``MainMemory.access_time``, and its counters (``kind_counts``,
``busy_cycles``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.dram import MainMemory
from repro.sim.params import DramParams

KINDS = ("demand", "prefetch", "ocp", "writeback")


def dram(bandwidth_gbps=3.2, banks=8):
    return MainMemory(DramParams(bandwidth_gbps=bandwidth_gbps,
                                 num_banks=banks))


class ReferenceDram:
    """The DRAM timing model written plainly, with ``//`` and ``%``."""

    def __init__(self, params):
        self.p = params
        self.bank_free = [0.0] * params.num_banks
        self.open_row = [-1] * params.num_banks
        self.bus_free = 0.0
        self.busy_cycles = 0.0
        self.counts = dict.fromkeys(KINDS, 0)

    def access(self, now, line, kind):
        p = self.p
        self.counts[kind] += 1
        row = line // p.lines_per_row
        bank = row % p.num_banks
        if self.open_row[bank] == row:
            latency = p.t_cas
        elif self.open_row[bank] == -1:
            latency = p.t_rcd + p.t_cas
        else:
            latency = p.t_rp + p.t_rcd + p.t_cas
        self.open_row[bank] = row
        data_ready = max(now, self.bank_free[bank]) + latency
        self.bank_free[bank] = data_ready
        completion = max(data_ready, self.bus_free) + p.line_transfer_cycles
        self.bus_free = completion
        self.busy_cycles += p.line_transfer_cycles
        return completion


class TestLatencyComposition:
    def test_cold_access_pays_activation_and_transfer(self):
        mem = dram()
        p = DramParams(bandwidth_gbps=3.2)
        expected = p.t_rcd + p.t_cas + p.line_transfer_cycles
        assert mem.access_time(0.0, 100, "demand") == pytest.approx(expected)

    def test_row_hit_pays_cas_only(self):
        mem = dram()
        p = DramParams()
        first = mem.access_time(0.0, 100, "demand")
        # Line 101 shares line 100's row (32 lines per 2 KiB row).
        second = mem.access_time(first, 101, "demand")
        assert second - first == pytest.approx(
            p.t_cas + p.line_transfer_cycles)

    def test_row_conflict_pays_precharge(self):
        mem = dram(banks=1)
        p = DramParams()
        first = mem.access_time(0.0, 0, "demand")
        assert first < 10_000.0
        # Different row, same (only) bank => precharge penalty.
        second = mem.access_time(10_000.0, p.lines_per_row * 5, "demand")
        assert second - 10_000.0 == pytest.approx(
            p.t_rp + p.t_rcd + p.t_cas + p.line_transfer_cycles)

    def test_unknown_kind_rejected(self):
        mem = dram()
        with pytest.raises(ValueError):
            mem.access_time(0.0, 1, "bogus")
        assert mem.kind_counts() == (0, 0, 0, 0)
        assert mem.busy_cycles == 0.0


class TestBandwidthContention:
    def test_burst_queues_on_data_bus(self):
        """Simultaneous requests serialise at line_transfer_cycles apart."""
        mem = dram()
        transfer = DramParams(bandwidth_gbps=3.2).line_transfer_cycles
        completions = [
            mem.access_time(0.0, line * 1000, "demand") for line in range(8)
        ]
        gaps = [b - a for a, b in zip(completions, completions[1:])]
        for gap in gaps:
            assert gap >= transfer - 1e-9

    def test_higher_bandwidth_shortens_transfer(self):
        slow = dram(bandwidth_gbps=1.6)
        fast = dram(bandwidth_gbps=12.8)
        s = slow.access_time(0.0, 1, "demand")
        f = fast.access_time(0.0, 1, "demand")
        assert f < s

    def test_prefetch_traffic_delays_demand(self):
        """The mechanism behind prefetcher-adverse behaviour: prefetch
        transfers occupy the same bus demands need."""
        quiet = dram()
        demand_alone = quiet.access_time(0.0, 1, "demand")

        busy = dram()
        for line in range(6):
            busy.access_time(0.0, 10_000 + line * 999, "prefetch")
        demand_contended = busy.access_time(0.0, 1, "demand")
        assert demand_contended > demand_alone

    def test_busy_cycles_accumulate_per_transfer(self):
        mem = dram()
        transfer = DramParams(bandwidth_gbps=3.2).line_transfer_cycles
        for line in range(5):
            mem.access_time(0.0, line, "demand")
        assert mem.busy_cycles == pytest.approx(5 * transfer)

    def test_next_bus_free_is_last_completion(self):
        mem = dram()
        completion = mem.access_time(0.0, 1, "demand")
        assert mem.next_bus_free == completion

    def test_bandwidth_usage_fraction(self):
        mem = dram()
        mem.access_time(0.0, 1, "demand")
        transfer = DramParams(bandwidth_gbps=3.2).line_transfer_cycles
        assert mem.bandwidth_usage(10 * transfer) == pytest.approx(0.1)
        assert mem.bandwidth_usage(0.0) == 0.0
        assert mem.bandwidth_usage(0.5 * transfer) == 1.0  # capped


class TestAccounting:
    def test_requests_partitioned_by_kind(self):
        mem = dram()
        mem.access_time(0.0, 1, "demand")
        mem.access_time(0.0, 2, "prefetch")
        mem.access_time(0.0, 3, "ocp")
        mem.access_time(0.0, 4, "writeback")
        mem.access_time(0.0, 5, "demand")
        assert mem.kind_counts() == (2, 1, 1, 1)
        assert mem.total_requests == 5

    def test_kind_counts_is_an_independent_snapshot(self):
        mem = dram()
        snap = mem.kind_counts()
        mem.access_time(0.0, 1, "demand")
        assert snap == (0, 0, 0, 0)
        assert mem.kind_counts() == (1, 0, 0, 0)

    def test_paper_bandwidth_mapping(self):
        """3.2 GB/s at 4 GHz core = 0.8 B/cycle = 80 cycles per line."""
        params = DramParams(bandwidth_gbps=3.2)
        assert params.bytes_per_cycle == pytest.approx(0.8)
        assert params.line_transfer_cycles == pytest.approx(80.0)


requests = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=1e5, allow_nan=False),
        st.integers(min_value=0, max_value=2**24),
        st.sampled_from(KINDS),
    ),
    max_size=60,
)


class TestPropertyBased:
    @given(requests)
    @settings(max_examples=40, deadline=None)
    def test_completion_always_after_request(self, reqs):
        mem = dram()
        for now, line, kind in sorted(reqs):
            assert mem.access_time(now, line, kind) > now

    @given(st.integers(min_value=1, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_busy_cycles_proportional_to_requests(self, n):
        mem = dram()
        for line in range(n):
            mem.access_time(0.0, line * 17, "demand")
        transfer = DramParams(bandwidth_gbps=3.2).line_transfer_cycles
        assert mem.busy_cycles == pytest.approx(n * transfer)

    @pytest.mark.parametrize("banks,row_bytes", [
        (8, 2048),   # power-of-two geometry: shift/mask address path
        (6, 3072),   # 48 lines per row, 6 banks: // and % address path
    ])
    @given(reqs=requests)
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_model(self, banks, row_bytes, reqs):
        params = DramParams(num_banks=banks, row_buffer_bytes=row_bytes)
        mem = MainMemory(params)
        ref = ReferenceDram(params)
        shift_mask = banks == 8
        assert (mem._row_shift >= 0) is shift_mask
        assert (mem._bank_mask >= 0) is shift_mask
        # Lines drawn near each other too, so rows hit and conflict.
        for now, line, kind in reqs:
            for addr in (line, line % 4096):
                assert mem.access_time(now, addr, kind) == \
                    ref.access(now, addr, kind)
        assert mem.kind_counts() == tuple(ref.counts[k] for k in KINDS)
        assert mem.busy_cycles == ref.busy_cycles
        assert mem.next_bus_free == ref.bus_free
