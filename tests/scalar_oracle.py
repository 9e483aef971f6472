"""The one-instruction-at-a-time reference emitters for every workload family.

These are the original generator loops the vectorized kernels of
:mod:`repro.workloads.generators` reproduce byte for byte.  They live on
the test side only: production emits every phase, short or long, through
the kernels, and these loops are the oracle the kernels are checked
against — per emitter at any budget (``tests/test_emitter_tails.py``),
per whole workload across sub-batch seams
(``tests/test_streaming_equivalence.py``), and as the source of the golden
trace digests (``tests/trace_goldens.py``).

Every loop draws from a caller-provided ``random.Random`` into a
:class:`~repro.workloads.trace.TraceBuilder`.  :func:`build` walks a
workload's phase plan (``WORKLOAD_PLANS``) exactly like the production
composer, with each plan's public emitter swapped for its loop here.
"""

from __future__ import annotations

import random

from repro.workloads import generators
from repro.workloads.trace import LINE_SHIFT, Trace, TraceBuilder

#: distinct PC regions per pattern so PC-indexed predictors can separate them
_PC_STRIDE = 0x40


def _pc(block: int, slot: int = 0) -> int:
    return 0x400000 + block * 0x10000 + slot * _PC_STRIDE


def _line_to_addr(line: int, offset: int = 0) -> int:
    return (line << LINE_SHIFT) | (offset & 0x3F)


def _filler(
    builder: TraceBuilder,
    rng: random.Random,
    count: int,
    pc_block: int,
    mispredict_rate: float,
) -> None:
    """Emit ``count`` non-memory instructions (ALU work + branches)."""
    for _ in range(count):
        if rng.random() < 0.15:
            builder.branch(
                _pc(pc_block, 9), mispredicted=rng.random() < mispredict_rate
            )
        else:
            builder.nop(_pc(pc_block, 8))


def emit_stream(
    builder, rng, instructions, base_line, pc_block,
    stride=1, gap=2, mispredict_rate=0.002, store_every=0,
    elements_per_line=8, array_lines=0, dep_every_lines=4,
) -> None:
    line, swept, emitted, i, lines_advanced = base_line, 0, 0, 0, 0
    while emitted < instructions:
        element = i % elements_per_line
        dependent = (
            element == 0 and lines_advanced % max(1, dep_every_lines) == 0
        )
        builder.load(
            _pc(pc_block, 0),
            _line_to_addr(line, element * 8),
            dependent=dependent,
        )
        emitted += 1
        if store_every and i % store_every == store_every - 1:
            builder.store(_pc(pc_block, 1), _line_to_addr(line, 8))
            emitted += 1
        fill = min(gap, instructions - emitted)
        _filler(builder, rng, fill, pc_block, mispredict_rate)
        emitted += fill
        if element == elements_per_line - 1:
            line += stride
            swept += stride
            lines_advanced += 1
            if array_lines and swept >= array_lines:
                line = base_line
                swept = 0
        i += 1


def emit_stencil(
    builder, rng, instructions, base_line, pc_block,
    arrays=3, array_gap_lines=1 << 16, mispredict_rate=0.001,
    elements_per_line=8,
) -> None:
    emitted, i = 0, 0
    while emitted < instructions:
        line_index = i // elements_per_line
        element = i % elements_per_line
        for a in range(arrays):
            if emitted >= instructions:
                break
            line = base_line + a * array_gap_lines + line_index
            if a == arrays - 1:
                builder.store(_pc(pc_block, a), _line_to_addr(line, element * 8))
            else:
                builder.load(_pc(pc_block, a), _line_to_addr(line, element * 8))
            emitted += 1
        fill = min(3, instructions - emitted)
        _filler(builder, rng, fill, pc_block, mispredict_rate)
        emitted += fill
        i += 1


def _sattolo(rng, working_set_lines: int) -> list:
    """A uniformly random single-cycle permutation (see the pointer-chase
    docstring for why a genuine cycle matters)."""
    perm = list(range(working_set_lines))
    for i in range(working_set_lines - 1, 0, -1):
        j = rng.randrange(i)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def emit_pointer_chase(
    builder, rng, instructions, base_line, working_set_lines, pc_block,
    gap=8, mispredict_rate=0.02, decoy_rate=0.3,
) -> None:
    perm = _sattolo(rng, working_set_lines)
    state = rng.randrange(working_set_lines)
    emitted = 0
    while emitted < instructions:
        line = base_line + state
        builder.load(_pc(pc_block, 0), _line_to_addr(line), dependent=True)
        emitted += 1
        if decoy_rate and rng.random() < decoy_rate:
            # Payload spill: a 4-line sequential run from one dedicated PC.
            for step in range(1, 5):
                if emitted >= instructions:
                    break
                builder.load(_pc(pc_block, 2), _line_to_addr(line + step))
                emitted += 1
        fill = min(gap, instructions - emitted)
        _filler(builder, rng, fill, pc_block, mispredict_rate)
        emitted += fill
        state = perm[state]


def emit_hash_probe(
    builder, rng, instructions, base_line, working_set_lines, pc_block,
    locality=0.1, gap=8, mispredict_rate=0.015, chain_length=2,
    decoy_rate=0.25,
) -> None:
    hot_lines = max(8, int(working_set_lines * 0.01))
    emitted = 0
    while emitted < instructions:
        if rng.random() < locality:
            # Hot-set probes come from their own PC (the fast path that
            # touches resident metadata), as in real hash-table code; a
            # PC-indexed off-chip predictor can then separate the always-
            # resident hot path from the always-missing cold probes.
            line = base_line + rng.randrange(hot_lines)
            builder.load(_pc(pc_block, 5), _line_to_addr(line))
        else:
            line = base_line + rng.randrange(working_set_lines)
            builder.load(_pc(pc_block, 0), _line_to_addr(line))
        emitted += 1
        for hop in range(chain_length):
            if emitted >= instructions:
                break
            line = base_line + (line * 2654435761 + hop) % working_set_lines
            builder.load(_pc(pc_block, 1), _line_to_addr(line), dependent=True)
            emitted += 1
            fill = min(3, instructions - emitted)
            _filler(builder, rng, fill, pc_block, mispredict_rate)
            emitted += fill
        if decoy_rate and rng.random() < decoy_rate:
            # Bucket scan: a short sequential sweep over the bucket's
            # neighbouring lines (open addressing / key comparison walk)
            # that trains stride predictors just long enough to misfire.
            for step in range(1, 5):
                if emitted >= instructions:
                    break
                builder.load(_pc(pc_block, 3), _line_to_addr(line + step))
                emitted += 1
        fill = min(gap, instructions - emitted)
        _filler(builder, rng, fill, pc_block, mispredict_rate)
        emitted += fill


def emit_graph_walk(
    builder, rng, instructions, base_line, num_vertices_lines, pc_block,
    neighbors_per_vertex=4, mispredict_rate=0.01, gap=3, clustering=0.3,
) -> None:
    frontier_line, step, emitted = base_line, 0, 0
    vertex_base = base_line + (1 << 20)
    while emitted < instructions:
        builder.load(
            _pc(pc_block, 0), _line_to_addr(frontier_line, (step * 8) & 0x3F)
        )
        emitted += 1
        if step % 8 == 7:
            frontier_line += 1
        step += 1
        hot_vertices = max(16, num_vertices_lines // 64)
        for _ in range(neighbors_per_vertex):
            if emitted >= instructions:
                break
            # Power-law-ish degree distribution: popular vertices stay hot
            # in the cache, the long tail goes off-chip.
            if rng.random() < clustering:
                target = vertex_base + rng.randrange(hot_vertices)
            else:
                target = vertex_base + rng.randrange(num_vertices_lines)
            builder.load(_pc(pc_block, 1), _line_to_addr(target),
                         dependent=rng.random() < 0.4)
            emitted += 1
            fill = min(gap, instructions - emitted)
            _filler(builder, rng, fill, pc_block, mispredict_rate)
            emitted += fill
        fill = min(gap, instructions - emitted)
        _filler(builder, rng, fill, pc_block, mispredict_rate)
        emitted += fill


def emit_gups(
    builder, rng, instructions, base_line, working_set_lines, pc_block,
    mispredict_rate=0.005,
) -> None:
    emitted = 0
    while emitted < instructions:
        line = base_line + rng.randrange(working_set_lines)
        builder.load(_pc(pc_block, 0), _line_to_addr(line))
        emitted += 1
        if emitted < instructions:
            builder.store(_pc(pc_block, 1), _line_to_addr(line, 8))
            emitted += 1
        fill = min(8, instructions - emitted)
        _filler(builder, rng, fill, pc_block, mispredict_rate)
        emitted += fill


def emit_compute(
    builder, rng, instructions, base_line, pc_block,
    memory_ratio=0.08, working_set_lines=4096, mispredict_rate=0.04,
    streaming_fraction=0.5,
) -> None:
    stream_line = base_line
    element = 0
    emitted = 0
    lines_advanced = 0
    while emitted < instructions:
        if rng.random() < memory_ratio:
            if rng.random() < streaming_fraction:
                # Same software-pipelined dependence as emit_stream: one
                # dependent advance every fourth line bounds the
                # prefetcher's upside on the streaming component.
                dependent = element == 0 and lines_advanced % 4 == 0
                builder.load(
                    _pc(pc_block, 0),
                    _line_to_addr(stream_line, element * 8),
                    dependent=dependent,
                )
                element += 1
                if element == 8:
                    element = 0
                    stream_line += 1
                    lines_advanced += 1
            else:
                line = base_line + (1 << 20) + rng.randrange(working_set_lines)
                builder.load(_pc(pc_block, 1), _line_to_addr(line))
            emitted += 1
        else:
            _filler(builder, rng, 1, pc_block, mispredict_rate)
            emitted += 1


def emit_strided_drift(
    builder, rng, instructions, base_line, pc_block,
    base_stride=1, stride_span=4, drift_every=64, gap=2,
    mispredict_rate=0.002, elements_per_line=8,
) -> None:
    line, emitted, i = base_line, 0, 0
    while emitted < instructions:
        g = i // elements_per_line
        element = i - g * elements_per_line
        dependent = element == 0 and g % drift_every == 0
        builder.load(_pc(pc_block, 0), _line_to_addr(line, element * 8),
                     dependent=dependent)
        emitted += 1
        fill = min(gap, instructions - emitted)
        _filler(builder, rng, fill, pc_block, mispredict_rate)
        emitted += fill
        if element == elements_per_line - 1:
            line += base_stride + (g // drift_every) % stride_span
        i += 1


def emit_producer_consumer(
    builder, rng, instructions, base_line, pc_block,
    ring_lines=1 << 12, lag=8, sync_every=16, gap=3,
    mispredict_rate=0.005,
) -> None:
    r, emitted = 0, 0
    control_line = base_line + ring_lines
    while emitted < instructions:
        if sync_every and r % sync_every == 0:
            # Consumer polls the head counter (the next ring address
            # comes from its value, so the load is dependent), producer
            # publishes the new tail.
            builder.load(_pc(pc_block, 2), _line_to_addr(control_line),
                         dependent=True)
            emitted += 1
            if emitted >= instructions:
                break
            builder.store(_pc(pc_block, 3), _line_to_addr(control_line, 8))
            emitted += 1
        if emitted >= instructions:
            break
        builder.store(_pc(pc_block, 0),
                      _line_to_addr(base_line + r % ring_lines))
        emitted += 1
        if emitted >= instructions:
            break
        builder.load(_pc(pc_block, 1),
                     _line_to_addr(base_line + (r - lag) % ring_lines))
        emitted += 1
        fill = min(gap, instructions - emitted)
        _filler(builder, rng, fill, pc_block, mispredict_rate)
        emitted += fill
        r += 1


#: each production emitter (what a phase plan names) -> its reference loop
SCALAR_EMITTERS = {
    generators.emit_stream: emit_stream,
    generators.emit_stencil: emit_stencil,
    generators.emit_pointer_chase: emit_pointer_chase,
    generators.emit_hash_probe: emit_hash_probe,
    generators.emit_graph_walk: emit_graph_walk,
    generators.emit_gups: emit_gups,
    generators.emit_compute: emit_compute,
    generators.emit_strided_drift: emit_strided_drift,
    generators.emit_producer_consumer: emit_producer_consumer,
}


def build(spec, length: int) -> Trace:
    """The reference trace of a synthetic workload spec at ``length``.

    Walks the spec's phase plan like ``generators._compose_rows``: one
    shared ``random.Random(seed)``, each phase for its share of
    ``length``, a filler pad up to ``length``, and the same overshoot
    truncation (and rename) as ``WorkloadSpec.build``.
    """
    plan = generators.WORKLOAD_PLANS[spec.pattern](
        spec.seed, **dict(spec.params))
    rng = random.Random(spec.seed)
    builder = TraceBuilder(spec.name, spec.suite)
    total_weight = sum(weight for weight, _, _ in plan)
    for weight, emit, kwargs in plan:
        budget = int(length * weight / total_weight)
        if budget > 0:
            SCALAR_EMITTERS[emit](builder, rng, budget, **kwargs)
    if len(builder) < length:
        _filler(builder, rng, length - len(builder), pc_block=0,
                mispredict_rate=0.0)
    trace = builder.build(metadata={"seed": spec.seed, "length": length})
    if len(trace) > length:
        trace = trace.slice(0, length)
    return trace
