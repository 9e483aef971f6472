"""Workload trace representation.

The paper drives ChampSim with instruction traces captured from SPEC CPU
2006/2017, PARSEC, Ligra, and CVP binaries.  This module defines the
equivalent in-memory trace format used by the Python simulator: three
parallel numpy arrays (program counter, byte address, flag bits), one entry
per retired instruction.

Flag bits
---------
``FLAG_LOAD``      instruction performs a data load (``addrs`` is valid).
``FLAG_STORE``     instruction performs a data store (``addrs`` is valid).
``FLAG_BRANCH``    instruction is a conditional branch.
``FLAG_MISPRED``   the branch was mispredicted (only with ``FLAG_BRANCH``).
``FLAG_DEP``       the load's address depends on the previous load's data
                   (serialises the two accesses; models pointer chasing).

Addresses are byte addresses; cacheline addresses are ``addr >> 6`` for the
64-byte lines used throughout the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FLAG_LOAD = 1
FLAG_STORE = 2
FLAG_BRANCH = 4
FLAG_MISPRED = 8
FLAG_DEP = 16

LINE_SHIFT = 6
LINE_SIZE = 1 << LINE_SHIFT


@dataclass
class Trace:
    """A fixed-length instruction trace for one single-threaded workload."""

    name: str
    suite: str
    pcs: np.ndarray
    addrs: np.ndarray
    flags: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.pcs)
        if len(self.addrs) != n or len(self.flags) != n:
            raise ValueError(
                f"trace arrays must be parallel: pcs={len(self.pcs)} "
                f"addrs={len(self.addrs)} flags={len(self.flags)}"
            )
        self.pcs = np.asarray(self.pcs, dtype=np.int64)
        self.addrs = np.asarray(self.addrs, dtype=np.int64)
        self.flags = np.asarray(self.flags, dtype=np.uint8)

    def __len__(self) -> int:
        return len(self.pcs)

    @property
    def num_instructions(self) -> int:
        return len(self.pcs)

    @property
    def num_loads(self) -> int:
        return int(np.count_nonzero(self.flags & FLAG_LOAD))

    @property
    def num_stores(self) -> int:
        return int(np.count_nonzero(self.flags & FLAG_STORE))

    @property
    def num_branches(self) -> int:
        return int(np.count_nonzero(self.flags & FLAG_BRANCH))

    @property
    def num_mispredicted_branches(self) -> int:
        both = FLAG_BRANCH | FLAG_MISPRED
        return int(np.count_nonzero((self.flags & both) == both))

    def memory_intensity(self) -> float:
        """Fraction of instructions that access memory."""
        mem = np.count_nonzero(self.flags & (FLAG_LOAD | FLAG_STORE))
        return float(mem) / max(1, len(self))

    def footprint_lines(self) -> int:
        """Number of distinct cachelines touched by loads and stores."""
        mask = (self.flags & (FLAG_LOAD | FLAG_STORE)) != 0
        if not mask.any():
            return 0
        return int(np.unique(self.addrs[mask] >> LINE_SHIFT).size)

    def slice(self, start: int, stop: int) -> "Trace":
        """Return a new trace covering instructions ``[start, stop)``."""
        return Trace(
            name=f"{self.name}[{start}:{stop}]",
            suite=self.suite,
            pcs=self.pcs[start:stop].copy(),
            addrs=self.addrs[start:stop].copy(),
            flags=self.flags[start:stop].copy(),
            metadata=dict(self.metadata),
        )


class TraceBuilder:
    """Incrementally build a :class:`Trace` (used by ``WorkloadSpec.build``).

    Accepts both scalar appends (one instruction at a time) and bulk
    numpy blocks (:meth:`extend`); segments of either kind interleave
    freely and are concatenated by :meth:`build`.
    """

    def __init__(self, name: str, suite: str) -> None:
        self.name = name
        self.suite = suite
        #: closed segments: (pcs, addrs, flags) numpy triples.
        self._segments: list = []
        # open scalar segment
        self._pcs: list = []
        self._addrs: list = []
        self._flags: list = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def add(self, pc: int, addr: int = 0, flags: int = 0) -> None:
        self._pcs.append(pc)
        self._addrs.append(addr)
        self._flags.append(flags)
        self._count += 1

    def extend(
        self, pcs: np.ndarray, addrs: np.ndarray, flags: np.ndarray
    ) -> None:
        """Append a block of instructions as parallel numpy arrays."""
        if not (len(pcs) == len(addrs) == len(flags)):
            raise ValueError("extend() arrays must be parallel")
        if len(pcs) == 0:
            return
        self._close_scalar_segment()
        self._segments.append((
            np.asarray(pcs, dtype=np.int64),
            np.asarray(addrs, dtype=np.int64),
            np.asarray(flags, dtype=np.uint8),
        ))
        self._count += len(pcs)

    def _close_scalar_segment(self) -> None:
        if self._pcs:
            self._segments.append((
                np.asarray(self._pcs, dtype=np.int64),
                np.asarray(self._addrs, dtype=np.int64),
                np.asarray(self._flags, dtype=np.uint8),
            ))
            self._pcs, self._addrs, self._flags = [], [], []

    def load(self, pc: int, addr: int, dependent: bool = False) -> None:
        f = FLAG_LOAD | (FLAG_DEP if dependent else 0)
        self.add(pc, addr, f)

    def store(self, pc: int, addr: int) -> None:
        self.add(pc, addr, FLAG_STORE)

    def nop(self, pc: int, count: int = 1) -> None:
        for _ in range(count):
            self.add(pc, 0, 0)

    def branch(self, pc: int, mispredicted: bool = False) -> None:
        f = FLAG_BRANCH | (FLAG_MISPRED if mispredicted else 0)
        self.add(pc, 0, f)

    def build(self, metadata: dict = None) -> Trace:
        self._close_scalar_segment()
        if not self._segments:
            parts = (np.empty(0, np.int64), np.empty(0, np.int64),
                     np.empty(0, np.uint8))
        elif len(self._segments) == 1:
            parts = self._segments[0]
        else:
            parts = tuple(
                np.concatenate([seg[col] for seg in self._segments])
                for col in range(3)
            )
        return Trace(
            name=self.name,
            suite=self.suite,
            pcs=parts[0],
            addrs=parts[1],
            flags=parts[2],
            metadata=metadata or {},
        )
