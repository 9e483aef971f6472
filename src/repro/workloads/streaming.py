"""Chunked trace streaming: fixed-size instruction blocks on demand.

The materialized path builds a whole :class:`~repro.workloads.trace.Trace`
in memory — three parallel arrays of ``trace_length`` entries — which caps
practical trace lengths and multiplies resident memory under concurrent
pool traffic.  This module is the streaming substrate: a trace becomes a
:class:`TraceStream` that yields fixed-size :class:`TraceBlock`\\ s, so the
simulators (whose run loops already consume the trace through a pre-chunk
seam) hold only O(block_size) instructions at a time.

Every workload streams through the same code as it materializes: a
:class:`~repro.workloads.suites.WorkloadSpec` defines its trace once, as
an iterator of ``(pcs, addrs, flags)`` rows (a synthetic family's
phase-composition generator, or an external file's adapter), and
:func:`reblock` slices those rows into blocks in the consumer,
synchronously.  A synthetic phase is emitted with its *full*
instruction budget (the budget-clamped filler near the end of a phase
consumes RNG draws as a function of the total budget, so carving the
budget into per-block pieces would change the stream).  Resident memory
is one sub-batch of rows plus the block being assembled, whatever the
trace length.

Equivalence with the materialized path at every block size is pinned by
``tests/test_streaming_equivalence.py`` against the 288 golden trace
digests and the golden simulation outputs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Generator, Iterable, Iterator,
                    List, Optional, Union)

if TYPE_CHECKING:  # numpy and the trace are imported where rows are read
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

    ``name`` is deliberately mutable: a synthetic workload whose rows
    overshoot ``length`` is renamed ``name[0:length]``, which a stream
    only discovers once emission finishes, so
    :meth:`~repro.workloads.suites.WorkloadSpec.stream` updates it on
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
        import numpy as np

        from .trace import Trace

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


def trace_blocks(
    trace: Union[Trace, TraceStream], position: int = 0
) -> Iterator[TraceBlock]:
    """A trace as the simulators read it, from global ``position`` on
    (the first block cut to begin there).

    A materialized trace is served as views of :data:`TRACE_BLOCK_ROWS`
    rows; a stream as its own blocks, through :meth:`TraceStream.iter_from`.
    """
    if isinstance(trace, TraceStream):
        return trace.iter_from(position)
    rows = TRACE_BLOCK_ROWS
    return _trimmed(blocks_from_trace(trace, rows, position // rows),
                    position)


def reblock(
    rows: Iterable, block_size: int, limit: Optional[int] = None
) -> Generator[TraceBlock, None, int]:
    """Repack arbitrary ``(pcs, addrs, flags)`` array triples into
    fixed-size blocks: a workload spec's rows, in whatever sub-batches
    its generator or adapter found convenient.

    A block is handed out as soon as ``block_size`` rows have
    accumulated; the partial tail block comes last.  Rows past
    ``limit`` are drained and dropped; the generator's return value is
    the total row count offered, dropped rows included, so a caller can
    tell that the rows overshot ``limit``.
    """
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    import numpy as np

    offered = 0
    room = limit
    #: buffered (pcs, addrs, flags) triples, oldest first
    pending: deque = deque()
    buffered = 0
    index = 0

    def take(size: int) -> TraceBlock:
        """Assemble exactly ``size`` rows from the front of the buffer."""
        parts = []
        need = size
        while need:
            seg = pending[0]
            if len(seg[0]) <= need:
                parts.append(pending.popleft())
                need -= len(seg[0])
            else:
                parts.append(tuple(col[:need] for col in seg))
                pending[0] = tuple(col[need:] for col in seg)
                need = 0
        if len(parts) == 1:
            pcs, addrs, flags = parts[0]
        else:
            pcs, addrs, flags = (
                np.concatenate([seg[col] for seg in parts])
                for col in range(3)
            )
        return TraceBlock(index=index, start=index * block_size,
                          pcs=pcs, addrs=addrs, flags=flags)

    for pcs, addrs, flags in rows:
        n = len(pcs)
        if not len(addrs) == len(flags) == n:
            raise ValueError("row arrays must be parallel")
        offered += n
        if room is not None:
            n = min(n, room)
            room -= n
        if n <= 0:
            continue
        pending.append((np.asarray(pcs[:n], dtype=np.int64),
                        np.asarray(addrs[:n], dtype=np.int64),
                        np.asarray(flags[:n], dtype=np.uint8)))
        buffered += n
        while buffered >= block_size:
            yield take(block_size)
            buffered -= block_size
            index += 1
    if buffered:
        yield take(buffered)
    return offered
