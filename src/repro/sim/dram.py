"""Banked main-memory model with an explicit data-bus occupancy model.

The key property the paper's results depend on is *bandwidth contention*:
every 64-byte transfer (demand, prefetch, OCP speculative fetch, writeback)
occupies the shared data bus for ``line_transfer_cycles`` — 80 core cycles
at the default 3.2 GB/s.  Useless prefetch and OCP traffic therefore delays
demand requests, which is what makes prefetchers performance-negative in
bandwidth-constrained configurations (paper §2.1.1, Figure 14).

Per-bank row-buffer state provides the row-hit/row-miss latency split
(tCAS vs tRP+tRCD+tCAS) of Table 5.

:meth:`MainMemory.access_time` is the one request path.  It maps a line to
its row and bank with a shift and a mask when the geometry is a power of
two, and with ``//`` and ``%`` otherwise.  Request counts are four scalar
counters; :meth:`MainMemory.kind_counts` snapshots them as a tuple.
"""

from __future__ import annotations

from typing import Tuple

from .params import DramParams


class MainMemory:
    """Single-channel DRAM shared by all requestors of one (or more) cores."""

    def __init__(self, params: DramParams) -> None:
        self.params = params
        self._bank_free = [0.0] * params.num_banks
        self._open_row = [-1] * params.num_banks
        self._bus_free = 0.0
        self._busy_cycles = 0.0
        self._demand_requests = 0
        self._prefetch_requests = 0
        self._ocp_requests = 0
        self._writeback_requests = 0
        self._num_banks = params.num_banks
        self._lines_per_row = params.lines_per_row
        # Shift/mask fast paths when the geometry is power-of-two (line
        # addresses are non-negative, so shift == floor-division).
        lpr = params.lines_per_row
        self._row_shift = (
            lpr.bit_length() - 1 if lpr > 0 and lpr & (lpr - 1) == 0 else -1
        )
        banks = params.num_banks
        self._bank_mask = (
            banks - 1 if banks > 0 and banks & (banks - 1) == 0 else -1
        )
        self._t_cas = params.t_cas
        self._t_rcd_cas = params.t_rcd + params.t_cas
        self._t_rp_rcd_cas = params.t_rp + params.t_rcd + params.t_cas
        self._transfer = params.line_transfer_cycles

    def access_time(self, now: float, line_addr: int, kind: str) -> float:
        """Issue one line transfer of ``kind`` at ``now``; returns its
        completion time.

        The request first waits for its bank (row activation), then for the
        shared data bus.  Both resources are modelled as next-free-time
        scalars, so a burst of requests sees linearly growing queue delay —
        the bandwidth wall.  ``kind`` is ``"demand"``, ``"prefetch"``,
        ``"ocp"`` or ``"writeback"``.
        """
        if kind == "demand":
            self._demand_requests += 1
        elif kind == "prefetch":
            self._prefetch_requests += 1
        elif kind == "ocp":
            self._ocp_requests += 1
        elif kind == "writeback":
            self._writeback_requests += 1
        else:
            raise ValueError(f"unknown DRAM request kind {kind!r}")

        row_shift = self._row_shift
        if row_shift >= 0:
            row = line_addr >> row_shift
        else:
            row = line_addr // self._lines_per_row
        bank_mask = self._bank_mask
        bank = row & bank_mask if bank_mask >= 0 else row % self._num_banks
        open_rows = self._open_row
        bank_free = self._bank_free

        free_at = bank_free[bank]
        bank_ready = now if now >= free_at else free_at
        open_row = open_rows[bank]
        if open_row == row:
            access_latency = self._t_cas
        elif open_row == -1:
            access_latency = self._t_rcd_cas
        else:
            access_latency = self._t_rp_rcd_cas
        open_rows[bank] = row

        data_ready = bank_ready + access_latency
        bus_free = self._bus_free
        transfer_start = data_ready if data_ready >= bus_free else bus_free
        completion = transfer_start + self._transfer

        self._bus_free = completion
        bank_free[bank] = data_ready
        self._busy_cycles += self._transfer
        return completion

    # -- telemetry -----------------------------------------------------------

    def kind_counts(self) -> Tuple[int, int, int, int]:
        """(demand, prefetch, ocp, writeback) counts — cheap epoch snapshot."""
        return (
            self._demand_requests,
            self._prefetch_requests,
            self._ocp_requests,
            self._writeback_requests,
        )

    @property
    def next_bus_free(self) -> float:
        """Earliest time a new transfer could start on the data bus."""
        return self._bus_free

    @property
    def total_requests(self) -> int:
        return (
            self._demand_requests + self._prefetch_requests
            + self._ocp_requests + self._writeback_requests
        )

    @property
    def busy_cycles(self) -> float:
        """Cumulative data-bus occupancy, for bandwidth-usage features."""
        return self._busy_cycles

    def bandwidth_usage(self, elapsed_cycles: float) -> float:
        """Fraction of peak bandwidth consumed over ``elapsed_cycles``."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self._busy_cycles / elapsed_cycles)
