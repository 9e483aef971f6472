"""Synthetic memory-access pattern generators.

These stand in for the paper's 100 SPEC / PARSEC / Ligra / CVP traces (see
docs/reproduction.md, "The scaled system").  Each generator emits an instruction
stream with a characteristic access pattern; suites compose them into
workloads that land in the paper's two behavioural classes:

* *prefetcher-friendly*: regular spatial patterns (streams, strides,
  stencils) that address-predicting prefetchers cover well;
* *prefetcher-adverse*: irregular patterns (pointer chasing, hash probes,
  graph neighbour walks) where full-address prediction fails but the
  binary off-chip/on-chip question stays highly predictable — the
  dichotomy behind paper Figure 1.

All generators draw from a caller-provided ``random.Random`` so workloads
are fully deterministic given their registry seed.

Each pattern family has one emitter, a vectorized numpy kernel
(``emit_*``).  A kernel decodes the shared ``random.Random``'s
Mersenne-Twister word stream in bulk (:mod:`repro.workloads.rng`,
:mod:`repro.workloads.vectorize`) and emits instruction blocks from
precomputed stride/permutation/hash-chain index arrays.  Its output is
*byte-identical* to a loop that emits one instruction and draws one value
at a time, and it leaves the ``random.Random`` in the same state, at any
budget: a round the budget cuts short is built at full size and
truncated, and the kernel commits only the words that round's kept rows
drew.  Those reference loops live on the test side
(``tests/scalar_oracle.py``); the golden trace digests
(``tests/test_trace_equivalence``) were recorded from them.

Every emitter is a generator of ``(pcs, addrs, flags)`` sub-batches.  A
kernel works through a phase ``_SUB_ROWS`` rows at a time, with every
decode window sized for one sub-batch, and carries the rest from one
sub-batch to the next: the word position of the shared ``random.Random``
(one :class:`~repro.workloads.rng.BulkRandom` per phase), the round index
and emitted count, and the walk state (pointer chase node, drifting line
cursor, compute stream-element count).  One phase-composition generator,
:func:`_compose_rows`, drains them in the order of a family's phase plan
(:data:`WORKLOAD_PLANS`).  Those rows are a synthetic
:class:`~repro.workloads.suites.WorkloadSpec`'s trace: its ``build``
concatenates them and its ``stream`` re-blocks them, so both tiers run
the same code and a streamed trace holds O(sub-batch + block) rows at
any length.
"""

from __future__ import annotations

import array
import random
from typing import Callable, Dict, Iterator, Tuple

import numpy as np

from .rng import BulkRandom
from .trace import (
    FLAG_BRANCH,
    FLAG_DEP,
    FLAG_LOAD,
    FLAG_MISPRED,
    FLAG_STORE,
    LINE_SHIFT,
)
from .vectorize import (
    WordWindow,
    ithreshold,
    bulk_filler,
    clamped_step,
    compose_jump,
    filler_at,
    filler_jump,
    filler_run_offsets,
    randrange_tables,
)

#: one emitted sub-batch: parallel ``(pcs, addrs, flags)`` arrays
Rows = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: distinct PC regions per pattern so PC-indexed predictors can separate them
_PC_STRIDE = 0x40

#: rows per vectorized sub-batch.  Every decode window and scratch array
#: is sized for one sub-batch, so emission holds O(sub-batch) rows
#: whatever the phase budget; the output is byte-identical at any value.
_SUB_ROWS = 2048


def _pc(block: int, slot: int = 0) -> int:
    return 0x400000 + block * 0x10000 + slot * _PC_STRIDE


def _filler_rows(rng, count, pc_block, mispredict_rate) -> Iterator[Rows]:
    """``count`` non-memory instructions (ALU work + branches), decoded in
    bulk sub-batches (filler is memoryless, so split decodes equal one)."""
    br = BulkRandom(rng)
    for lo in range(0, count, _SUB_ROWS):
        yield bulk_filler(br, min(_SUB_ROWS, count - lo), pc_block,
                          mispredict_rate)
    br.sync()


# --------------------------------------------------------------------------
# kernel plumbing
# --------------------------------------------------------------------------

def _load_flags(dep_mask: np.ndarray) -> np.ndarray:
    return np.where(dep_mask, FLAG_LOAD | FLAG_DEP, FLAG_LOAD).astype(np.uint8)


def _rounds_per_batch(round_rows: int) -> int:
    """Whole rounds of at most ``round_rows`` rows per sub-batch."""
    return max(1, _SUB_ROWS // round_rows)


def _scatter_filler(br, pcs, flags, fpos, total, pc_block, mispredict_rate):
    """Decode the filler rows at the ascending positions ``fpos`` that lie
    below ``total`` (the rows the budget keeps) and scatter them in."""
    kept = fpos[:int(np.searchsorted(fpos, total))]
    fpc, _, ffl = bulk_filler(br, len(kept), pc_block, mispredict_rate)
    pcs[kept] = fpc
    flags[kept] = ffl


def _after_fillers(fjmp1: np.ndarray, o, count: int) -> int:
    """Word offset after ``count`` filler instructions starting at ``o``."""
    for _ in range(count):
        o = fjmp1[o]
    return int(o)


def _chain(win: WordWindow, tables, rounds: int, margin: int):
    """Word offsets where ``rounds`` consecutive rounds start, plus the
    offset after the last, walked through the one-round jump table (the
    last entry of ``tables(win)``).

    An offset within ``margin`` words of the window's end may have been
    clamped at its sentinel by the tables, so the window regrows and the
    walk resumes from the last good round.  Returns the offsets and the
    tables they index.  Callers drop the window and its tables before
    decoding the next sub-batch, so only one is ever alive.
    """
    t = tables(win)
    step = t[-1].item
    limit = win.size - margin
    offs = np.empty(rounds + 1, dtype=np.int64)
    o = 0
    k = 0
    while True:
        if o >= limit:
            win.grow()
            t = tables(win)
            step = t[-1].item
            limit = win.size - margin
            o = step(offs[k - 1]) if k else 0
            continue
        offs[k] = o
        if k == rounds:
            return offs, t
        o = step(o)
        k += 1


# --------------------------------------------------------------------------
# emitters: resumable generators of bounded sub-batches
# --------------------------------------------------------------------------

def emit_stream(rng, instructions, base_line, pc_block,
                stride=1, gap=2, mispredict_rate=0.002, store_every=0,
                elements_per_line=8, array_lines=0,
                dep_every_lines=4) -> Iterator[Rows]:
    """Sequential/strided node scan: the canonical prefetcher-friendly
    pattern.

    Loads walk 8-byte elements; each cacheline serves ``elements_per_line``
    consecutive loads.  Every ``dep_every_lines``-th line advance is
    *address-dependent* on the previous line's data (a sequentially
    laid-out linked structure whose node spans several lines), which makes
    the pattern partially latency-bound without prefetching: the periodic
    dependent advance caps the memory-level parallelism the out-of-order
    window can extract, and an accurate prefetcher collapses those chains
    into cache hits.  The period bounds the prefetcher's upside to the
    paper's observed range (friendly-workload speedups of roughly
    1.1-1.7x) instead of the unbounded win a fully-serialised stream
    would show.

    ``array_lines`` > 0 wraps the sweep so the array becomes LLC-resident
    after the first pass (prefetching then hides on-chip latency without
    extra DRAM traffic); 0 streams endlessly through cold memory.

    The iteration skeleton (line walk, store cadence, dependence period)
    is a closed-form function of the iteration index, and the only RNG
    consumer is the filler — so each sub-batch is three numpy scatters
    plus one bulk filler decode, resumed at the next iteration index.
    """
    L = instructions
    epl = elements_per_line
    se = store_every
    period = -(-array_lines // stride)  # ceil: advances per wrap

    def emitted_before(i):
        return i * (1 + gap) + (i // se if se else 0)

    # Iteration i is *full* (its filler gap is not budget-clamped) while
    # it ends within the budget: emitted_before(i + 1) <= L.
    K, hi = 0, L // (1 + gap) + 1  # emitted_before(hi) > L
    while hi - K > 1:
        mid = (K + hi) // 2
        if emitted_before(mid) <= L:
            K = mid
        else:
            hi = mid
    # Budget left after K iterations starts one more whose filler gap is
    # clamped; its load and store still land, so the store can overshoot.
    iterations, stop = K, L
    if emitted_before(K) < L:
        iterations += 1
        if se and K % se == se - 1:
            stop = max(L, emitted_before(K) + 2)
    br = BulkRandom(rng)
    batch = _rounds_per_batch(2 + gap)
    for i0 in range(0, iterations, batch):
        n = min(batch, iterations - i0)
        i_arr = np.arange(i0, i0 + n, dtype=np.int64)
        s_arr = ((i_arr % se) == se - 1).astype(np.int64) if se else \
            np.zeros(n, dtype=np.int64)
        pos = emitted_before(i_arr) - emitted_before(i0)
        g = i_arr // epl
        element = i_arr - g * epl
        line = base_line + stride * (g % period if array_lines else g)
        dep = (element == 0) & (g % max(1, dep_every_lines) == 0)

        size = emitted_before(i0 + n) - emitted_before(i0)
        total = min(emitted_before(i0 + n), stop) - emitted_before(i0)
        pcs = np.empty(size, dtype=np.int64)
        addrs = np.zeros(size, dtype=np.int64)
        flags = np.zeros(size, dtype=np.uint8)
        pcs[pos] = _pc(pc_block, 0)
        addrs[pos] = (line << LINE_SHIFT) | ((element * 8) & 0x3F)
        flags[pos] = _load_flags(dep)
        if se:
            sm = s_arr.astype(bool)
            store_pos = pos[sm] + 1
            pcs[store_pos] = _pc(pc_block, 1)
            addrs[store_pos] = (line[sm] << LINE_SHIFT) | 8
            flags[store_pos] = FLAG_STORE
        if gap:
            fpos = (
                (pos + 1 + s_arr)[:, None] + np.arange(gap, dtype=np.int64)
            ).ravel()
            _scatter_filler(br, pcs, flags, fpos, total, pc_block,
                            mispredict_rate)
        yield pcs[:total], addrs[:total], flags[:total]
    br.sync()


def emit_stencil(rng, instructions, base_line, pc_block,
                 arrays=3, array_gap_lines=1 << 16, mispredict_rate=0.001,
                 elements_per_line=8) -> Iterator[Rows]:
    """Multiple concurrent unit-stride streams (a[i] = b[i] op c[i]).

    Uniform rounds of ``arrays`` accesses + 3 filler build directly as a
    ``(rounds, size)`` matrix; the budget keeps a prefix of the last.
    """
    rs = arrays + 3
    rounds = -(-instructions // rs)
    br = BulkRandom(rng)
    batch = _rounds_per_batch(rs)
    for k0 in range(0, rounds, batch):
        n = min(batch, rounds - k0)
        total = min(n * rs, instructions - k0 * rs)
        i_arr = np.arange(k0, k0 + n, dtype=np.int64)
        line_index = i_arr // elements_per_line
        element = i_arr % elements_per_line
        pcs = np.empty((n, rs), dtype=np.int64)
        addrs = np.zeros((n, rs), dtype=np.int64)
        flags = np.zeros((n, rs), dtype=np.uint8)
        offset = (element * 8) & 0x3F
        for a in range(arrays):
            line = base_line + a * array_gap_lines + line_index
            pcs[:, a] = _pc(pc_block, a)
            addrs[:, a] = (line << LINE_SHIFT) | offset
            flags[:, a] = FLAG_STORE if a == arrays - 1 else FLAG_LOAD
        # the budget may keep only a prefix of the last round's filler
        kept = 3 * n - min(3, n * rs - total)
        fpc = np.zeros(3 * n, dtype=np.int64)
        ffl = np.zeros(3 * n, dtype=np.uint8)
        fpc[:kept], _, ffl[:kept] = bulk_filler(br, kept, pc_block,
                                                mispredict_rate)
        pcs[:, arrays:] = fpc.reshape(n, 3)
        flags[:, arrays:] = ffl.reshape(n, 3)
        yield (pcs.ravel()[:total], addrs.ravel()[:total],
               flags.ravel()[:total])
    br.sync()


def emit_pointer_chase(rng, instructions, base_line, working_set_lines,
                       pc_block, gap=8, mispredict_rate=0.02,
                       decoy_rate=0.3) -> Iterator[Rows]:
    """Dependent random walk: prefetcher-adverse, highly off-chip.

    Every load's address comes from the previous load's data (FLAG_DEP),
    so misses serialise — the linked-list traversal of mcf/omnetpp/canneal.
    With the working set far exceeding the LLC, nearly every access goes
    off-chip, which is exactly the regime where an OCP shines.

    The walk follows a Sattolo single-cycle permutation (a genuine linked
    list threaded randomly through the working set; a multiplicative LCG
    walk degenerates into tiny same-set cycles for power-of-two working
    sets — a conflict-thrash microbenchmark, not a pointer chase).

    ``decoy_rate`` controls how often a node visit spills into a short
    sequential-line burst (reading the node's payload across adjacent
    lines).  Real irregular workloads are full of such transient runs;
    they bait stride/delta prefetchers into gaining confidence and then
    spraying useless prefetch degree past the end of the run — the
    mechanism behind the paper's prefetcher-adverse degradation.

    The Sattolo cycle is drawn through the bulk RNG, the walk itself
    follows the permutation orbit from the carried node, and the
    decoy/filler decode is an offset chain.
    """
    L = instructions
    br = BulkRandom(rng)
    # a compact array, not a list: the permutation lives for the whole
    # phase, and a list of Python ints would be ~8x its size.
    perm = array.array("i", range(working_set_lines))
    if working_set_lines > 1:
        bounds = range(working_set_lines - 1, 0, -1)
        for i, j in zip(bounds, br.randrange_var(bounds)):
            perm[i], perm[j] = perm[j], perm[i]
    state = int(br.randrange(working_set_lines, 1)[0])

    def tables(win):
        fj1 = filler_jump(win)
        fjg = compose_jump(fj1, gap)
        # One round: optional decoy-decision double, then the gap run.
        return fj1, fjg[clamped_step(win, 2)] if decoy_rate else fjg

    batch = _rounds_per_batch(5 + gap)
    emitted = 0
    while emitted < L:
        # Speculatively decode an upper bound of the rounds left (as if
        # none were budget-clamped), then cut at the first round the
        # budget does not start; only the words of kept rows are
        # committed.
        n = min(batch, (L - emitted - 1) // (1 + gap) + 1)
        win = WordWindow(br, n * (2 + gap * 3) + 256)
        offs, (fjmp1, G) = _chain(win, tables, n, 8 + 4 * gap)
        if decoy_rate:
            dc_full = win.mant[offs[:n]] < ithreshold(decoy_rate)
        else:
            dc_full = np.zeros(n, dtype=bool)
        sizes = np.where(dc_full, 5 + gap, 1 + gap).astype(np.int64)
        off = np.cumsum(sizes) - sizes
        K = int(np.searchsorted(off, L - emitted))

        dc_arr = dc_full[:K]
        off = off[:K]
        fstarts = offs[:K] + (2 if decoy_rate else 0)
        states = np.empty(K, dtype=np.int64)
        s = state
        for k in range(K):
            states[k] = s
            s = perm[s]
        state = s

        size = int(off[-1] + sizes[K - 1])
        total = min(size, L - emitted)
        commit = int(offs[K])
        if total < size:
            # The budget clamps the last round's decoy burst and filler;
            # its decoy decision is drawn regardless.
            head = 5 if dc_arr[-1] else 1
            commit = _after_fillers(fjmp1, fstarts[-1],
                                    total - int(off[-1]) - head)
        br.advance_words(commit)

        pcs = np.empty(size, dtype=np.int64)
        addrs = np.zeros(size, dtype=np.int64)
        flags = np.zeros(size, dtype=np.uint8)
        line = base_line + states
        pcs[off] = _pc(pc_block, 0)
        addrs[off] = line << LINE_SHIFT
        flags[off] = FLAG_LOAD | FLAG_DEP
        if dc_arr.any():
            doff = off[dc_arr]
            dpos = (doff[:, None] + np.arange(1, 5, dtype=np.int64)).ravel()
            dline = line[dc_arr][:, None] + np.arange(1, 5, dtype=np.int64)
            pcs[dpos] = _pc(pc_block, 2)
            addrs[dpos] = (dline << LINE_SHIFT).ravel()
            flags[dpos] = FLAG_LOAD
        if gap:
            foffs = filler_run_offsets(fjmp1, fstarts, gap)
            fpc, ffl = filler_at(win, foffs.ravel(), pc_block,
                                 mispredict_rate)
            fpos = (
                (off + np.where(dc_arr, 5, 1))[:, None]
                + np.arange(gap, dtype=np.int64)
            ).ravel()
            pcs[fpos] = fpc
            flags[fpos] = ffl
        yield pcs[:total], addrs[:total], flags[:total]
        del win, fjmp1, G  # one window at a time (see _chain)
        emitted += total
    br.sync()


def emit_hash_probe(rng, instructions, base_line, working_set_lines,
                    pc_block, locality=0.1, gap=8, mispredict_rate=0.015,
                    chain_length=2, decoy_rate=0.25) -> Iterator[Rows]:
    """Random hash probes with dependent bucket chains (xalancbmk-like).

    Each probe lands on a random bucket; collisions walk a short *dependent*
    chain (``chain_length`` loads whose addresses come from the previous
    load).  The mix leaves the pattern unprefetchable (random addresses) but
    partially latency-bound (dependent chains), which is exactly the regime
    where an accurate off-chip predictor wins and a prefetcher only burns
    bandwidth — the paper's prefetcher-adverse class.

    Hot/cold randrange tables feed a per-round offset chain; the
    dependent bucket chains are Fibonacci hashes of the probe value,
    computed as whole index arrays.
    """
    L = instructions
    cl = chain_length
    hot_lines = max(8, int(working_set_lines * 0.01))

    def tables(win):
        fj1 = filler_jump(win)
        fj3 = compose_jump(fj1, 3)
        fjg = compose_jump(fj1, gap)
        rrh = randrange_tables(win, hot_lines)
        rrw = randrange_tables(win, working_set_lines)
        hot_t = win.below(locality)
        sent = np.int32(win.size - 2)
        s2 = clamped_step(win, 2)
        r_after = np.where(hot_t, rrh.after[s2], rrw.after[s2])
        hops_after = compose_jump(fj3, cl)[r_after] if cl else r_after
        g_start = np.minimum(hops_after + 2, sent) if decoy_rate \
            else hops_after
        return (fj1, fj3, rrh, rrw, hot_t, r_after, hops_after,
                fjg[g_start])

    br = BulkRandom(rng)
    min_round = 1 + 4 * cl + gap
    batch = _rounds_per_batch(min_round + 4)
    emitted = 0
    while emitted < L:
        # speculative decode + cut, as in the pointer chase
        n = min(batch, (L - emitted - 1) // min_round + 1)
        win = WordWindow(br, n * (7 + (3 * cl + gap) * 5 // 2) + 256)
        offs, (fjmp1, fjmp3, rrh, rrw, hot_t, r_after, hops_after, G) = \
            _chain(win, tables, n, 16 + 4 * (3 * cl + gap))
        if decoy_rate:
            dc_full = win.mant[hops_after[offs[:n]]] < \
                ithreshold(decoy_rate)
        else:
            dc_full = np.zeros(n, dtype=bool)
        sizes = (min_round + np.where(dc_full, 4, 0)).astype(np.int64)
        off = np.cumsum(sizes) - sizes
        K = int(np.searchsorted(off, L - emitted))

        ro = offs[:K]
        hot_arr = hot_t[ro]
        dc_arr = dc_full[:K]
        o1 = np.minimum(ro + 2, win.size - 2)
        val_arr = np.where(
            hot_arr, rrh.value_at(o1), rrw.value_at(o1)
        ).astype(np.int64)
        off = off[:K]
        size = int(off[-1] + sizes[K - 1])
        total = min(size, L - emitted)
        commit = int(offs[K])
        if total < size:
            # The budget clamps the last round: its hop loop may break
            # early, yet the decoy decision is drawn after whatever hops
            # ran; its bucket scan and gap filler are cut.
            left = total - int(off[-1]) - 1
            o = r_after[ro[-1]]
            for _ in range(cl):
                if not left:
                    break
                hop_fill = min(3, left - 1)
                o = _after_fillers(fjmp1, o, hop_fill)
                left -= 1 + hop_fill
            if decoy_rate:
                o += 2
                left -= min(4, left) if dc_arr[-1] else 0
            commit = _after_fillers(fjmp1, o, min(gap, left))
        br.advance_words(commit)

        pcs = np.empty(size, dtype=np.int64)
        addrs = np.zeros(size, dtype=np.int64)
        flags = np.zeros(size, dtype=np.uint8)
        line = base_line + val_arr
        pcs[off] = np.where(hot_arr, _pc(pc_block, 5), _pc(pc_block, 0))
        addrs[off] = line << LINE_SHIFT
        flags[off] = FLAG_LOAD
        fs = r_after[ro]
        for hop in range(cl):
            line = base_line + (line * 2654435761 + hop) % working_set_lines
            hpos = off + 1 + 4 * hop
            pcs[hpos] = _pc(pc_block, 1)
            addrs[hpos] = line << LINE_SHIFT
            flags[hpos] = FLAG_LOAD | FLAG_DEP
            foffs = filler_run_offsets(fjmp1, fs, 3)
            fpc, ffl = filler_at(
                win, foffs.ravel(), pc_block, mispredict_rate
            )
            fpos = (
                (hpos + 1)[:, None] + np.arange(3, dtype=np.int64)
            ).ravel()
            pcs[fpos] = fpc.ravel()
            flags[fpos] = ffl.ravel()
            fs = fjmp3[fs]
        if dc_arr.any():
            dpos = (
                (off[dc_arr] + 1 + 4 * cl)[:, None]
                + np.arange(4, dtype=np.int64)
            ).ravel()
            dline = line[dc_arr][:, None] + np.arange(1, 5, dtype=np.int64)
            pcs[dpos] = _pc(pc_block, 3)
            addrs[dpos] = (dline << LINE_SHIFT).ravel()
            flags[dpos] = FLAG_LOAD
        if gap:
            fg = np.minimum(hops_after[ro] + 2, win.size - 2) \
                if decoy_rate else hops_after[ro]
            foffs = filler_run_offsets(fjmp1, fg, gap)
            fpc, ffl = filler_at(
                win, foffs.ravel(), pc_block, mispredict_rate
            )
            fpos = (
                (off + 1 + 4 * cl + np.where(dc_arr, 4, 0))[:, None]
                + np.arange(gap, dtype=np.int64)
            ).ravel()
            pcs[fpos] = fpc
            flags[fpos] = ffl
        yield pcs[:total], addrs[:total], flags[:total]
        # one window at a time (see _chain)
        del win, fjmp1, fjmp3, rrh, rrw, hot_t, r_after, hops_after, G
        emitted += total
    br.sync()


def emit_graph_walk(rng, instructions, base_line, num_vertices_lines,
                    pc_block, neighbors_per_vertex=4, mispredict_rate=0.01,
                    gap=3, clustering=0.3) -> Iterator[Rows]:
    """Frontier-driven graph processing (Ligra BFS/PageRank shape).

    Alternates a sequential frontier/offset scan (friendly) with bursts of
    random vertex-data accesses (adverse); the blend is what makes graph
    workloads partially prefetchable.

    Uniform rounds (frontier scan + ``neighbors_per_vertex`` probes) build
    as a matrix, with hot/cold vertex randrange tables driving the
    neighbour targets; the budget keeps a prefix of the last round.
    """
    npv = neighbors_per_vertex
    hot_vertices = max(16, num_vertices_lines // 64)
    vertex_base = base_line + (1 << 20)
    rs = 1 + npv * (1 + gap) + gap
    rounds = -(-instructions // rs)

    def tables(win):
        fj1 = filler_jump(win)
        fjg = compose_jump(fj1, gap)
        rrh = randrange_tables(win, hot_vertices)
        rrn = randrange_tables(win, num_vertices_lines)
        hot_t = win.below(clustering)
        s2 = clamped_step(win, 2)
        # One neighbour: clustering double, hot/cold randrange,
        # dependence double, then the gap-instruction filler run.
        nb_after = np.where(hot_t, rrh.after[s2], rrn.after[s2])
        fstart_t = np.minimum(nb_after + 2, np.int32(win.size - 2))
        N = fjg[fstart_t]
        # Full round: npv neighbours, then the final filler run.
        return (fj1, rrh, rrn, hot_t, nb_after, fstart_t, N,
                fjg[compose_jump(N, npv)])

    br = BulkRandom(rng)
    batch = _rounds_per_batch(rs)
    for k0 in range(0, rounds, batch):
        n = min(batch, rounds - k0)
        total = min(n * rs, instructions - k0 * rs)
        win = WordWindow(
            br, n * (npv * (7 + 5 * gap // 2) + 5 * gap // 2) + 256
        )
        offs, (fjmp1, rrh, rrn, hot_t, nb_after, fstart_t, N, G) = \
            _chain(win, tables, n, 16 + (npv + 1) * 4 * gap)
        commit = int(offs[n])
        if total < n * rs:
            # The budget truncates the last round's neighbour list: every
            # neighbour it starts draws its target, then a clamped filler.
            o, left = offs[n - 1], total - (n - 1) * rs - 1
            for _ in range(npv):
                if not left:
                    break
                nb_fill = min(gap, left - 1)
                o = _after_fillers(fjmp1, fstart_t[o], nb_fill)
                left -= 1 + nb_fill
            commit = _after_fillers(fjmp1, o, min(gap, left))
        br.advance_words(commit)

        i_arr = np.arange(k0, k0 + n, dtype=np.int64)
        pcs = np.empty((n, rs), dtype=np.int64)
        addrs = np.zeros((n, rs), dtype=np.int64)
        flags = np.zeros((n, rs), dtype=np.uint8)
        pcs[:, 0] = _pc(pc_block, 0)
        addrs[:, 0] = ((base_line + i_arr // 8) << LINE_SHIFT) | \
            ((i_arr * 8) & 0x3F)
        flags[:, 0] = FLAG_LOAD
        cur = offs[:n]
        for nb in range(npv):
            col = 1 + nb * (1 + gap)
            hot = hot_t[cur]
            o1 = np.minimum(cur + 2, win.size - 2)
            vals = np.where(
                hot, rrh.value_at(o1), rrn.value_at(o1)
            ).astype(np.int64)
            deps = win.mant[nb_after[cur]] < ithreshold(0.4)
            pcs[:, col] = _pc(pc_block, 1)
            addrs[:, col] = (vertex_base + vals) << LINE_SHIFT
            flags[:, col] = _load_flags(deps)
            if gap:
                foffs = filler_run_offsets(fjmp1, fstart_t[cur], gap)
                fpc, ffl = filler_at(
                    win, foffs.ravel(), pc_block, mispredict_rate
                )
                pcs[:, col + 1: col + 1 + gap] = fpc.reshape(n, gap)
                flags[:, col + 1: col + 1 + gap] = ffl.reshape(n, gap)
            cur = N[cur]
        if gap:
            foffs = filler_run_offsets(fjmp1, cur, gap)
            fpc, ffl = filler_at(win, foffs.ravel(), pc_block,
                                 mispredict_rate)
            pcs[:, rs - gap:] = fpc.reshape(n, gap)
            flags[:, rs - gap:] = ffl.reshape(n, gap)
        yield (pcs.ravel()[:total], addrs.ravel()[:total],
               flags.ravel()[:total])
        # one window at a time (see _chain)
        del win, fjmp1, rrh, rrn, hot_t, nb_after, fstart_t, N, G, cur
    br.sync()


def emit_gups(rng, instructions, base_line, working_set_lines, pc_block,
              mispredict_rate=0.005) -> Iterator[Rows]:
    """Random read-modify-write updates (GUPS / streamcluster-like).

    One ``randrange`` + load/store pair + 8 filler per round; the
    word-offset chain walks precomputed randrange/filler jump tables,
    everything else is gathers.
    """
    rounds = -(-instructions // 10)

    def tables(win):
        rr = randrange_tables(win, working_set_lines)
        fj1 = filler_jump(win)
        # One whole round — randrange, then an 8-instruction filler
        # run — as a single composed jump table.
        return rr, fj1, compose_jump(fj1, 8)[rr.after]

    br = BulkRandom(rng)
    batch = _rounds_per_batch(10)
    for k0 in range(0, rounds, batch):
        n = min(batch, rounds - k0)
        total = min(n * 10, instructions - k0 * 10)
        win = WordWindow(br, n * 21 + 256)
        offs, (rr, fjmp1, G) = _chain(win, tables, n, 64)
        fstarts = rr.after[offs[:n]]
        commit = int(offs[n])
        if total < n * 10:
            # the budget cuts the last round after its load (and store)
            commit = _after_fillers(fjmp1, fstarts[-1],
                                    total - (n - 1) * 10 - 2)
        br.advance_words(commit)
        vals = rr.value_at(offs[:n])

        pcs = np.empty((n, 10), dtype=np.int64)
        addrs = np.zeros((n, 10), dtype=np.int64)
        flags = np.zeros((n, 10), dtype=np.uint8)
        line = base_line + vals
        pcs[:, 0] = _pc(pc_block, 0)
        addrs[:, 0] = line << LINE_SHIFT
        flags[:, 0] = FLAG_LOAD
        pcs[:, 1] = _pc(pc_block, 1)
        addrs[:, 1] = (line << LINE_SHIFT) | 8
        flags[:, 1] = FLAG_STORE
        foffs = filler_run_offsets(fjmp1, fstarts, 8)
        fpc, ffl = filler_at(win, foffs.ravel(), pc_block, mispredict_rate)
        pcs[:, 2:] = fpc.reshape(n, 8)
        flags[:, 2:] = ffl.reshape(n, 8)
        yield (pcs.ravel()[:total], addrs.ravel()[:total],
               flags.ravel()[:total])
        del win, rr, fjmp1, G  # one window at a time (see _chain)
    br.sync()


def emit_compute(rng, instructions, base_line, pc_block,
                 memory_ratio=0.08, working_set_lines=4096,
                 mispredict_rate=0.04,
                 streaming_fraction=0.5) -> Iterator[Rows]:
    """Compute-dominated phases with occasional memory bursts (CVP-like).

    The streaming component walks 8-byte elements of a sequentially-linked
    structure (periodic dependent line advance, like :func:`emit_stream`);
    the irregular component probes a random working set.

    Every instruction consumes one to three draws, so the decode is a
    single per-instruction offset chain through one composed transition
    table; the streaming component's element/line state is a prefix-sum
    over the stream-load subsequence, resumed from the stream loads of
    earlier sub-batches.  With one instruction per round, no budget
    clamps a round.
    """
    L = instructions

    def tables(win):
        below_ratio = win.below(memory_ratio)
        below_sf = win.below(streaming_fraction)
        below_b = win.below(0.15)
        rr = randrange_tables(win, working_set_lines)
        idx = win.idx
        o2 = np.minimum(idx + 2, win.size - 1)
        o4 = np.minimum(idx + 4, win.size - 2)
        T = np.where(
            below_ratio,
            np.where(below_sf[o2], idx + 4, rr.after[o4]),
            np.where(below_b[o2], idx + 6, idx + 4),
        )
        np.clip(T, 0, win.size - 2, out=T)
        return below_ratio, below_sf, below_b, rr, T

    br = BulkRandom(rng)
    streamed = 0
    for lo in range(0, L, _SUB_ROWS):
        n = min(_SUB_ROWS, L - lo)
        # ~4.4 words/instruction: every instruction draws the
        # memory-ratio double, then either the filler or the
        # stream/irregular decode.
        win = WordWindow(br, n * 9 // 2 + 256)
        offs, (below_ratio, below_sf, below_b, rr, T) = \
            _chain(win, tables, n, 64)
        br.advance_words(int(offs[n]))
        offs = offs[:n]

        mem = below_ratio[offs]
        stream = mem & below_sf[offs + 2]
        irregular = mem & ~stream
        fill = ~mem
        fbranch = fill & below_b[offs + 2]
        fmis = fbranch & (win.mant[offs + 4] < ithreshold(mispredict_rate))

        pcs = np.empty(n, dtype=np.int64)
        addrs = np.zeros(n, dtype=np.int64)
        flags = np.zeros(n, dtype=np.uint8)

        count = int(stream.sum())
        j = np.arange(streamed, streamed + count, dtype=np.int64)
        streamed += count
        element = j & 7
        pcs[stream] = _pc(pc_block, 0)
        addrs[stream] = ((base_line + (j >> 3)) << LINE_SHIFT) | \
            ((element * 8) & 0x3F)
        flags[stream] = _load_flags((j & 31) == 0)

        if irregular.any():
            v = rr.value_at(np.minimum(offs[irregular] + 4, win.size - 1))
            pcs[irregular] = _pc(pc_block, 1)
            addrs[irregular] = (base_line + (1 << 20) + v) << LINE_SHIFT
            flags[irregular] = FLAG_LOAD

        pcs[fill] = np.where(fbranch[fill], _pc(pc_block, 9),
                             _pc(pc_block, 8))
        fl = np.where(fbranch, FLAG_BRANCH, 0).astype(np.uint8)
        fl[fmis] |= FLAG_MISPRED
        flags[fill] = fl[fill]
        yield pcs, addrs, flags
        # one window at a time (see _chain)
        del win, below_ratio, below_sf, below_b, rr, T
    br.sync()


def emit_strided_drift(rng, instructions, base_line, pc_block,
                       base_stride=1, stride_span=4, drift_every=64,
                       gap=2, mispredict_rate=0.002,
                       elements_per_line=8) -> Iterator[Rows]:
    """Strided scan whose stride drifts over time (blocked-matrix walk).

    Like :func:`emit_stream` but the stride steps through
    ``stride_span`` values, advancing every ``drift_every`` lines —
    the shape of a tiled traversal whose leading dimension grows (or a
    structure-of-arrays scan with per-field phases).  Stride
    prefetchers lock onto each plateau quickly, then misfire across
    every drift boundary; the boundary's first load is additionally
    *address-dependent* (the next tile's base pointer), so those
    misses are serialised and an accurate off-chip predictor still has
    headroom where the prefetcher stumbles.

    The drifting line walk is a prefix-sum over the per-line stride
    schedule (a pure function of the line index) from the carried line
    cursor, and the filler is the only RNG consumer — so each sub-batch
    is one scatter plus one bulk filler decode.
    """
    epl = elements_per_line
    # the last iteration's filler gap may be budget-clamped
    iterations = -(-instructions // (1 + gap))
    br = BulkRandom(rng)
    batch = _rounds_per_batch(1 + gap)
    line = base_line  # the cursor: where line index i0 // epl lies
    for i0 in range(0, iterations, batch):
        n = min(batch, iterations - i0)
        i_arr = np.arange(i0, i0 + n, dtype=np.int64)
        g = i_arr // epl
        element = i_arr - g * epl
        dep = (element == 0) & (g % drift_every == 0)
        # line starts from this sub-batch's first line through the next
        # one's: the cursor plus a prefix sum of the drift schedule
        g0, g1 = i0 // epl, (i0 + n) // epl
        strides = base_stride + (
            np.arange(g0, g1, dtype=np.int64) // drift_every
        ) % stride_span
        line_pos = line + np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(strides))
        )
        line = int(line_pos[-1])

        e_arr = (i_arr - i0) * (1 + gap)
        size = n * (1 + gap)
        total = min(size, instructions - i0 * (1 + gap))
        pcs = np.empty(size, dtype=np.int64)
        addrs = np.zeros(size, dtype=np.int64)
        flags = np.zeros(size, dtype=np.uint8)
        pcs[e_arr] = _pc(pc_block, 0)
        addrs[e_arr] = (line_pos[g - g0] << LINE_SHIFT) | \
            ((element * 8) & 0x3F)
        flags[e_arr] = _load_flags(dep)
        if gap:
            fpos = (
                (e_arr + 1)[:, None] + np.arange(gap, dtype=np.int64)
            ).ravel()
            _scatter_filler(br, pcs, flags, fpos, total, pc_block,
                            mispredict_rate)
        yield pcs[:total], addrs[:total], flags[:total]
    br.sync()


def emit_producer_consumer(rng, instructions, base_line, pc_block,
                           ring_lines=1 << 12, lag=8, sync_every=16,
                           gap=3, mispredict_rate=0.005) -> Iterator[Rows]:
    """Producer-consumer traffic over a shared ring buffer.

    Each round writes the ring's head line and reads the line ``lag``
    slots behind it; every ``sync_every`` rounds both sides touch a
    shared control line (a dependent load of the head counter plus a
    store publishing the tail) — the communication skeleton of
    pipeline-parallel PARSEC workloads.  Run on several cores of a mix
    with the same ring region (see :func:`_plan_producer_consumer`'s
    ``region_seed``), the cores genuinely share LLC lines, which is the
    paper's multicore contention scenario in miniature.  ``ring_lines``
    decides whether the ring is LLC-resident (hits after warmup) or
    streams through DRAM.

    Round sizes (with or without the periodic sync pair) are a pure
    function of the round index, so offsets are one cumsum and the ring
    walk two modular index arrays from the carried round index; only the
    filler touches the RNG.
    """
    L = instructions
    control_line = base_line + ring_lines
    br = BulkRandom(rng)
    batch = _rounds_per_batch(4 + gap)
    r0 = 0
    emitted = 0
    while emitted < L:
        n = min(batch, (L - emitted - 1) // (2 + gap) + 1)
        r_arr = np.arange(r0, r0 + n, dtype=np.int64)
        if sync_every:
            sm = r_arr % sync_every == 0
        else:
            sm = np.zeros(n, dtype=bool)
        sizes = (2 + gap + np.where(sm, 2, 0)).astype(np.int64)
        off = np.cumsum(sizes) - sizes
        # the rounds the budget starts; it keeps a prefix of the last
        K = int(np.searchsorted(off, L - emitted))
        sm, off, r_arr = sm[:K], off[:K], r_arr[:K]
        size = int(off[-1] + sizes[K - 1])
        total = min(size, L - emitted)
        pcs = np.empty(size, dtype=np.int64)
        addrs = np.zeros(size, dtype=np.int64)
        flags = np.zeros(size, dtype=np.uint8)
        if sm.any():
            spos = off[sm]
            pcs[spos] = _pc(pc_block, 2)
            addrs[spos] = control_line << LINE_SHIFT
            flags[spos] = FLAG_LOAD | FLAG_DEP
            pcs[spos + 1] = _pc(pc_block, 3)
            addrs[spos + 1] = (control_line << LINE_SHIFT) | 8
            flags[spos + 1] = FLAG_STORE
        body = off + np.where(sm, 2, 0)
        pcs[body] = _pc(pc_block, 0)
        addrs[body] = (base_line + r_arr % ring_lines) << LINE_SHIFT
        flags[body] = FLAG_STORE
        pcs[body + 1] = _pc(pc_block, 1)
        addrs[body + 1] = (
            base_line + (r_arr - lag) % ring_lines
        ) << LINE_SHIFT
        flags[body + 1] = FLAG_LOAD
        if gap:
            fpos = (
                (body + 2)[:, None] + np.arange(gap, dtype=np.int64)
            ).ravel()
            _scatter_filler(br, pcs, flags, fpos, total, pc_block,
                            mispredict_rate)
        yield pcs[:total], addrs[:total], flags[:total]
        emitted += total
        r0 += K
    br.sync()


# --------------------------------------------------------------------------
# whole-workload generators (phase composition)
# --------------------------------------------------------------------------

def _compose_rows(seed, length, phases) -> Iterator[Rows]:
    """Yield one workload's sub-batches: each (weight, emit_fn, kwargs)
    phase for its share of ``length``, then the pad to ``length``.

    The rows of every synthetic
    :class:`~repro.workloads.suites.WorkloadSpec`, which concatenates
    them in ``build`` and re-blocks them in ``stream``.  Emitters may
    land a few instructions past their budget (a burst or a store
    straddling the boundary), so the rows can overshoot ``length``;
    consumers truncate.
    """
    rng = random.Random(seed)
    total_weight = sum(weight for weight, _, _ in phases)
    emitted = 0
    for weight, emit, kwargs in phases:
        budget = int(length * weight / total_weight)
        if budget > 0:
            for rows in emit(rng, budget, **kwargs):
                emitted += len(rows[0])
                yield rows
    if emitted < length:
        yield from _filler_rows(rng, length - emitted, pc_block=0,
                                mispredict_rate=0.0)


# Phase plans: the (weight, emitter, kwargs) list for one workload as a
# pure function of (seed, family params) — what ``_compose_rows`` walks.

def _plan_streaming(seed, stride=1):
    return [
        (1.0, emit_stream,
         dict(base_line=seed % 1000 << 12, pc_block=1, stride=stride,
              store_every=8)),
    ]


def _plan_stencil(seed):
    return [
        (1.0, emit_stencil, dict(base_line=(seed % 997) << 13, pc_block=2)),
    ]


def _plan_pointer_chase(seed, working_set_lines=1 << 14, decoy_rate=0.3):
    return [
        (1.0, emit_pointer_chase,
         dict(base_line=(seed % 991) << 14, pc_block=3,
              working_set_lines=working_set_lines,
              decoy_rate=decoy_rate)),
    ]


def _plan_hash_probe(seed, working_set_lines=1 << 14, decoy_rate=0.25):
    return [
        (1.0, emit_hash_probe,
         dict(base_line=(seed % 983) << 14, pc_block=4,
              working_set_lines=working_set_lines,
              decoy_rate=decoy_rate)),
    ]


def _plan_graph(seed, num_vertices_lines=1 << 14, neighbors_per_vertex=4):
    return [
        (1.0, emit_graph_walk,
         dict(base_line=(seed % 977) << 14, pc_block=5,
              num_vertices_lines=num_vertices_lines,
              neighbors_per_vertex=neighbors_per_vertex)),
    ]


def _plan_gups(seed, working_set_lines=1 << 14):
    return [
        (1.0, emit_gups,
         dict(base_line=(seed % 971) << 14, pc_block=6,
              working_set_lines=working_set_lines)),
    ]


def _plan_compute(seed, memory_ratio=0.12, streaming_fraction=0.5,
                  mispredict_rate=0.04, working_set_lines=2048):
    return [
        (1.0, emit_compute,
         dict(base_line=(seed % 967) << 13, pc_block=7,
              memory_ratio=memory_ratio,
              streaming_fraction=streaming_fraction,
              mispredict_rate=mispredict_rate,
              working_set_lines=working_set_lines)),
    ]


def _plan_phased(seed, working_set_lines=1 << 14):
    """Alternating friendly/adverse phases (gcc/astar-like)."""
    base = (seed % 953) << 14
    return [
        (0.35, emit_stream, dict(base_line=base, pc_block=1, store_every=16)),
        (0.2, emit_hash_probe,
         dict(base_line=base + (1 << 21), pc_block=4,
              working_set_lines=working_set_lines)),
        (0.3, emit_stream,
         dict(base_line=base + (1 << 22), pc_block=1, stride=2)),
        (0.15, emit_pointer_chase,
         dict(base_line=base + (1 << 23), pc_block=3,
              working_set_lines=working_set_lines)),
    ]


def _plan_datacenter(seed, irregular_fraction=0.6):
    """Google/DPC4-like: bursty irregular traffic + moderate streaming."""
    base = (seed % 947) << 14
    regular = max(0.05, 1.0 - irregular_fraction)
    return [
        (irregular_fraction * 0.6, emit_hash_probe,
         dict(base_line=base, pc_block=4, working_set_lines=1 << 15,
              locality=0.25)),
        (irregular_fraction * 0.4, emit_pointer_chase,
         dict(base_line=base + (1 << 22), pc_block=3,
              working_set_lines=1 << 14, gap=5)),
        (regular * 0.5, emit_stream,
         dict(base_line=base + (1 << 23), pc_block=1, gap=4)),
        (regular * 0.5, emit_compute,
         dict(base_line=base + (1 << 24), pc_block=7, memory_ratio=0.10)),
    ]


def _plan_phase_shift(seed, working_set_lines=1 << 14, phases=5):
    """Phase-shifting composite: friendly/adverse alternation with a
    drifting blend (later phases run longer and stride differently).

    Where :func:`_plan_phased` pins four fixed phases, this family
    sweeps the friendly/adverse balance across ``phases`` segments —
    the regime a per-epoch coordination policy must track without
    oscillating.
    """
    base = (seed % 937) << 14
    plan = []
    for p in range(phases):
        weight = 1.0 + 0.5 * p / max(1, phases - 1)
        region = base + p * (1 << 21)
        if p % 2 == 0:
            plan.append((weight, emit_stream,
                         dict(base_line=region, pc_block=1,
                              stride=1 + (p // 2) % 3, store_every=12)))
        elif p % 4 == 1:
            plan.append((weight, emit_hash_probe,
                         dict(base_line=region, pc_block=4,
                              working_set_lines=working_set_lines)))
        else:
            plan.append((weight, emit_pointer_chase,
                         dict(base_line=region, pc_block=3,
                              working_set_lines=working_set_lines)))
    return plan


def _plan_strided_drift(seed, base_stride=1, stride_span=4, drift_every=64):
    return [
        (1.0, emit_strided_drift,
         dict(base_line=(seed % 929) << 13, pc_block=10,
              base_stride=base_stride, stride_span=stride_span,
              drift_every=drift_every)),
    ]


def _plan_producer_consumer(seed, ring_lines=1 << 12, lag=8, sync_every=16,
                            region_seed=None):
    """Producer-consumer ring traffic; ``region_seed`` pins the ring's
    address region so several mix members can share the same lines
    (pass one value to every core of a sharing mix)."""
    base_seed = seed if region_seed is None else region_seed
    return [
        (1.0, emit_producer_consumer,
         dict(base_line=(base_seed % 919) << 13, pc_block=11,
              ring_lines=ring_lines, lag=lag, sync_every=sync_every)),
    ]


#: the workload families: pattern name -> phase plan.  A
#: :class:`~repro.workloads.suites.WorkloadSpec`'s ``pattern`` names its
#: plan, and its ``params`` are the plan's keyword arguments.
WORKLOAD_PLANS: Dict[str, Callable[..., list]] = {
    "streaming": _plan_streaming,
    "stencil": _plan_stencil,
    "pointer_chase": _plan_pointer_chase,
    "hash_probe": _plan_hash_probe,
    "graph": _plan_graph,
    "gups": _plan_gups,
    "compute": _plan_compute,
    "phased": _plan_phased,
    "datacenter": _plan_datacenter,
    "phase_shift": _plan_phase_shift,
    "strided_drift": _plan_strided_drift,
    "producer_consumer": _plan_producer_consumer,
}
