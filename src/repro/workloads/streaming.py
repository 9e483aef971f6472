"""Chunked trace streaming: fixed-size instruction blocks on demand.

The materialized path builds a whole :class:`~repro.workloads.trace.Trace`
in memory — three parallel arrays of ``trace_length`` entries — which caps
practical trace lengths and multiplies resident memory under concurrent
pool traffic.  This module is the streaming substrate: a trace becomes a
:class:`TraceStream` that yields fixed-size :class:`TraceBlock`\\ s, so the
simulators (whose run loops already consume the trace through a pre-chunk
seam) hold only O(block_size) instructions at a time.

Generated workloads stream through the same code as materialized ones:
the generators' phase-composition generator yields vectorized
``(pcs, addrs, flags)`` sub-batches with every phase's *full* instruction
budget (the budget-clamped filler near the end of a phase consumes RNG
draws as a function of the total budget, so carving the budget into
per-block pieces would change the stream), and :func:`reblock` slices
them into blocks in the consumer, synchronously.  Resident memory is one
generator sub-batch plus the block being assembled, whatever the trace
length.

Equivalence with the materialized path at every block size is pinned by
``tests/test_streaming_equivalence.py`` against the 288 golden trace
digests and the golden simulation outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Iterable, Iterator, List, Optional

import numpy as np

from .trace import Trace

#: Rows per block in which the simulators read a materialized trace.  It
#: bounds the per-block lists their run loops build (slow rows, branch
#: prefix sums, OCP keys); results do not depend on it.
TRACE_BLOCK_ROWS = 4096


@dataclass
class TraceBlock:
    """One fixed-size slab of a streamed trace.

    ``start`` is the block's first global instruction index; ``index`` is
    the block ordinal.  The arrays are parallel, in the same dtypes as
    :class:`~repro.workloads.trace.Trace` columns.
    """

    index: int
    start: int
    pcs: np.ndarray
    addrs: np.ndarray
    flags: np.ndarray

    def __len__(self) -> int:
        return len(self.pcs)

    @property
    def stop(self) -> int:
        return self.start + len(self.pcs)


class TraceStream:
    """A trace served as an iterable of :class:`TraceBlock`\\ s.

    ``factory`` returns a fresh block iterator per traversal, so a stream
    can be replayed (the multi-core simulator loops traces back-to-back).
    ``seek``, when provided (a stream re-blocking a whole in-memory trace
    can start at any block), maps a block index to an iterator beginning
    there; without it :meth:`iter_from` falls back to skipping from the
    start.

    ``name`` is deliberately mutable: the materialized composer renames an
    overshooting trace on truncation (``name[0:length]``), which a stream
    only discovers once emission finishes, so producers update it on
    completion.
    """

    def __init__(
        self,
        name: str,
        suite: str,
        length: int,
        block_size: int,
        factory: Callable[[], Iterable[TraceBlock]],
        seek: Optional[Callable[[int], Iterable[TraceBlock]]] = None,
        metadata: Optional[dict] = None,
    ) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.name = name
        self.suite = suite
        self.length = length
        self.block_size = block_size
        self.metadata = metadata or {}
        self._factory = factory
        self._seek = seek

    def __len__(self) -> int:
        return self.length

    @property
    def num_instructions(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[TraceBlock]:
        return iter(self._factory())

    def iter_from(self, position: int) -> Iterator[TraceBlock]:
        """Yield blocks covering global positions ``[position, length)``.

        The first yielded block is trimmed to begin exactly at
        ``position`` (its ``start`` reflects the trim), so a checkpointed
        run can re-enter the measured region without replaying the
        prefix.
        """
        if position <= 0:
            yield from self
            return
        if self._seek is not None:
            blocks = self._seek(position // self.block_size)
        else:
            blocks = self._factory()
        yield from _trimmed(blocks, position)

    def materialize(self) -> Trace:
        """Assemble the whole stream into an in-memory :class:`Trace`.

        Debug/reference helper — it defeats the memory bound on purpose.
        """
        pcs: List[np.ndarray] = []
        addrs: List[np.ndarray] = []
        flags: List[np.ndarray] = []
        for block in self:
            pcs.append(block.pcs)
            addrs.append(block.addrs)
            flags.append(block.flags)
        if pcs:
            parts = (np.concatenate(pcs), np.concatenate(addrs),
                     np.concatenate(flags))
        else:
            parts = (np.empty(0, np.int64), np.empty(0, np.int64),
                     np.empty(0, np.uint8))
        return Trace(
            name=self.name,
            suite=self.suite,
            pcs=parts[0],
            addrs=parts[1],
            flags=parts[2],
            metadata=dict(self.metadata),
        )


class BlockAssembler:
    """Slices a run of ``(pcs, addrs, flags)`` arrays into fixed-size
    blocks.

    Whenever a full ``block_size`` worth of rows has accumulated through
    :meth:`extend`, the assembler hands one :class:`TraceBlock` to
    ``emit`` and drops its rows.

    ``__len__`` counts *every* row ever offered — including rows past
    ``limit``, which are dropped rather than buffered.  That matches the
    materialized composer's arithmetic exactly: there the builder keeps
    overshoot rows and ``_compose`` truncates with ``trace.slice``; here
    the truncation happens at append time, but the count (and with it
    the truncation rename) is the same.
    """

    def __init__(
        self,
        block_size: int,
        emit: Callable[[TraceBlock], None],
        limit: Optional[int] = None,
    ) -> None:
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self._block_size = block_size
        self._emit = emit
        self._limit = limit
        self._count = 0  # total rows offered
        self._kept = 0  # rows not dropped by the limit
        self._segments: list = []  # buffered (pcs, addrs, flags) triples
        self._buffered = 0
        self._next_index = 0
        self._next_start = 0

    def __len__(self) -> int:
        return self._count

    def extend(
        self, pcs: np.ndarray, addrs: np.ndarray, flags: np.ndarray
    ) -> None:
        if not (len(pcs) == len(addrs) == len(flags)):
            raise ValueError("extend() arrays must be parallel")
        n = len(pcs)
        self._count += n
        if n == 0:
            return
        if self._limit is not None:
            room = self._limit - self._kept
            if room <= 0:
                return
            if n > room:
                pcs, addrs, flags, n = pcs[:room], addrs[:room], \
                    flags[:room], room
        self._kept += n
        self._segments.append((
            np.asarray(pcs, dtype=np.int64),
            np.asarray(addrs, dtype=np.int64),
            np.asarray(flags, dtype=np.uint8),
        ))
        self._buffered += n
        while self._buffered >= self._block_size:
            self._emit(self._pop_block(self._block_size))

    def _pop_block(self, size: int) -> TraceBlock:
        """Assemble exactly ``size`` rows from the front of the buffer."""
        parts: list = []
        need = size
        while need:
            seg = self._segments[0]
            avail = len(seg[0])
            if avail <= need:
                parts.append(seg)
                self._segments.pop(0)
                need -= avail
            else:
                parts.append(tuple(col[:need] for col in seg))
                self._segments[0] = tuple(col[need:] for col in seg)
                need = 0
        if len(parts) == 1:
            pcs, addrs, flags = parts[0]
        else:
            pcs, addrs, flags = (
                np.concatenate([seg[col] for seg in parts])
                for col in range(3)
            )
        block = TraceBlock(
            index=self._next_index,
            start=self._next_start,
            pcs=pcs,
            addrs=addrs,
            flags=flags,
        )
        self._next_index += 1
        self._next_start += size
        self._buffered -= size
        return block

    def finish(self) -> int:
        """Flush the partial tail block; return the total row count."""
        if self._buffered:
            self._emit(self._pop_block(self._buffered))
        return self._count


def blocks_from_trace(
    trace: Trace, block_size: int, start_index: int = 0
) -> Iterator[TraceBlock]:
    """Re-block a materialized trace (views, no copies).

    ``start_index`` makes this double as the ``seek`` callable for
    streams backed by whole-trace storage tiers.
    """
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    n = len(trace)
    for index in range(start_index, -(-n // block_size) if n else 0):
        lo = index * block_size
        hi = min(lo + block_size, n)
        yield TraceBlock(
            index=index,
            start=lo,
            pcs=trace.pcs[lo:hi],
            addrs=trace.addrs[lo:hi],
            flags=trace.flags[lo:hi],
        )


def _trimmed(
    blocks: Iterable[TraceBlock], position: int
) -> Iterator[TraceBlock]:
    """``blocks`` from global ``position`` on: earlier blocks are skipped
    and the one straddling ``position`` is cut to begin there (its
    ``start`` reflects the cut)."""
    for block in blocks:
        if block.stop <= position:
            continue
        if block.start < position:
            cut = position - block.start
            yield TraceBlock(
                index=block.index,
                start=position,
                pcs=block.pcs[cut:],
                addrs=block.addrs[cut:],
                flags=block.flags[cut:],
            )
        else:
            yield block


def trace_blocks(trace: Trace, position: int = 0) -> Iterator[TraceBlock]:
    """A materialized trace as the simulators read it: views of
    :data:`TRACE_BLOCK_ROWS` rows from global ``position`` on (the first
    one cut to begin there)."""
    rows = TRACE_BLOCK_ROWS
    return _trimmed(blocks_from_trace(trace, rows, position // rows),
                    position)


def reblock(
    rows: Iterable, block_size: int, limit: Optional[int] = None
) -> Generator[TraceBlock, None, int]:
    """Repack arbitrary ``(pcs, addrs, flags)`` array triples into
    fixed-size blocks: the generators' sub-batches, or external trace
    files in whatever chunks the parser found convenient.

    Rows past ``limit`` are drained and dropped; the generator's return
    value is the total row count offered, dropped rows included.
    """
    collected: list = []
    assembler = BlockAssembler(block_size, collected.append, limit=limit)
    for pcs, addrs, flags in rows:
        assembler.extend(pcs, addrs, flags)
        yield from collected
        collected.clear()
    total = assembler.finish()
    yield from collected
    return total
