"""Off-chip predictor (OCP) interface.

An OCP makes a *binary* prediction per demand load with a known cacheline
address: will this request miss all on-chip caches and go to main memory?
(paper §2).  When the prediction is positive the hierarchy launches a
speculative DRAM fetch after ``ocp_issue_latency`` cycles, hiding the
on-chip lookup latency from the critical path of a true off-chip miss —
Hermes/POPET semantics.

Predictors are trained with the ground-truth outcome once the demand
resolves.
"""

from __future__ import annotations

import abc

import numpy as np


class OffChipPredictor(abc.ABC):
    """Base class for POPET, HMP and TTP."""

    def __init__(self) -> None:
        self.enabled = True

    @property
    def name(self) -> str:
        return type(self).__name__

    def block_keys(self, pcs: np.ndarray, addrs: np.ndarray) -> list:
        """One prediction key per trace row of the int64 ``pcs``/``addrs``
        columns, for :meth:`predict` and :meth:`train` of that row's load.

        A key holds whatever the predictor derives from the row alone
        (POPET: its five table indices), so the run loops compute it per
        trace block, off the per-access path.  Predictors that derive
        nothing return ``None`` keys and ignore them.
        """
        return [None] * len(pcs)

    @abc.abstractmethod
    def predict(self, pc: int, line_addr: int, byte_offset: int = 0,
                key=None) -> bool:
        """Predict whether the load at ``pc``/``line_addr`` goes off-chip.

        ``byte_offset`` is the load's offset within its cacheline — one of
        POPET's program features (element position separates the first
        touch of a line from subsequent same-line accesses).  ``key`` is
        the row's :meth:`block_keys` entry; ``None`` derives it here.

        Returns ``False`` unconditionally while disabled (the coordination
        action gates speculative requests, not learning).
        """

    @abc.abstractmethod
    def train(self, pc: int, line_addr: int, went_offchip: bool,
              byte_offset: int = 0, key=None) -> None:
        """Update predictor state with the resolved outcome."""

    def on_fill(self, line_addr: int) -> None:
        """A line was installed on-chip (used by tag-tracking predictors)."""

    def on_eviction(self, line_addr: int) -> None:
        """A line left the on-chip hierarchy (used by tag-tracking predictors)."""

    @abc.abstractmethod
    def storage_bits(self) -> int:
        """Hardware budget (Table 8 audit)."""

    def storage_kib(self) -> float:
        return self.storage_bits() / 8192.0
