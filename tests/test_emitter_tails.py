"""Every vectorized emitter against its reference loop, at any budget.

A kernel in :mod:`repro.workloads.generators` emits whole rounds in bulk
and finishes a budget that cuts a round short itself: the round is built
at full size and truncated, and only the words its kept rows drew are
committed.  These tests pin that, per emitter, against the loops in
``tests/scalar_oracle.py``: for every budget 0-64 and for drawn budgets
up to ~3,000 with non-default parameters, at sub-batch sizes that put
seams everywhere, the rows must be equal and the shared
``random.Random`` must end in the same state.
"""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle
import trace_goldens
from repro.workloads import generators
from repro.workloads.trace import TraceBuilder

SUB_ROWS = (1, 7, 997, 2048)

#: family -> (emitter, positional arguments after the budget)
FAMILIES = {
    "stream": (generators.emit_stream, (1 << 12, 1)),
    "stencil": (generators.emit_stencil, (1 << 13, 2)),
    "pointer_chase": (generators.emit_pointer_chase, (1 << 14, 64, 3)),
    "hash_probe": (generators.emit_hash_probe, (1 << 14, 1 << 10, 4)),
    "graph_walk": (generators.emit_graph_walk, (1 << 14, 1 << 10, 5)),
    "gups": (generators.emit_gups, (1 << 14, 1 << 10, 6)),
    "compute": (generators.emit_compute, (1 << 13, 7)),
    "strided_drift": (generators.emit_strided_drift, (1 << 13, 10)),
    "producer_consumer": (generators.emit_producer_consumer, (1 << 13, 11)),
}

#: non-default parameters per family: zero gaps, no decoys, stores in
#: every iteration, no sync rounds, long and empty chains
VARIANTS = {
    "stream": [dict(store_every=8), dict(gap=0, store_every=1),
               dict(gap=0, store_every=3, stride=2, array_lines=40),
               dict(gap=4, store_every=12, dep_every_lines=1)],
    "stencil": [dict(arrays=1), dict(arrays=5, elements_per_line=2)],
    "pointer_chase": [dict(gap=0), dict(decoy_rate=0),
                      dict(gap=0, decoy_rate=0.9), dict(gap=5)],
    "hash_probe": [dict(gap=0), dict(decoy_rate=0), dict(chain_length=0),
                   dict(chain_length=5, gap=1, decoy_rate=0.9),
                   dict(chain_length=1, gap=0, decoy_rate=0)],
    "graph_walk": [dict(gap=0), dict(neighbors_per_vertex=1, gap=5),
                   dict(neighbors_per_vertex=7, clustering=0.9)],
    "gups": [dict(mispredict_rate=0.5)],
    "compute": [dict(memory_ratio=0.5, streaming_fraction=0.2),
                dict(memory_ratio=0.0)],
    "strided_drift": [dict(gap=0), dict(gap=5, drift_every=2,
                                        stride_span=3)],
    "producer_consumer": [dict(sync_every=0), dict(gap=0),
                          dict(sync_every=1, gap=0),
                          dict(sync_every=3, gap=5, lag=2, ring_lines=16)],
}


def _kernel_trace(family, rng, budget, params):
    emit, args = FAMILIES[family]
    builder = TraceBuilder("", "")
    for rows in emit(rng, budget, *args, **params):
        builder.extend(*rows)
    return builder.build()


def _oracle_trace(family, rng, budget, params):
    emit, args = FAMILIES[family]
    builder = TraceBuilder("", "")
    scalar_oracle.SCALAR_EMITTERS[emit](builder, rng, budget, *args,
                                        **params)
    return builder.build()


def _assert_same(family, budget, params, seed):
    """Kernel and reference loop on one seeded ``random.Random`` each:
    equal rows, equal generator state afterwards."""
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    got = _kernel_trace(family, got_rng, budget, params)
    want = _oracle_trace(family, want_rng, budget, params)
    for name in ("pcs", "addrs", "flags"):
        np.testing.assert_array_equal(
            getattr(got, name), getattr(want, name),
            err_msg=f"{family} budget={budget} {params}: {name}")
    assert got_rng.getstate() == want_rng.getstate(), (
        f"{family} budget={budget} {params}: RNG state diverges")


@pytest.mark.parametrize("sub_rows", SUB_ROWS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_short_budget_matches_the_oracle(family, sub_rows,
                                               monkeypatch):
    monkeypatch.setattr(generators, "_SUB_ROWS", sub_rows)
    for params in [{}] + VARIANTS[family]:
        for budget in range(65):
            _assert_same(family, budget, params, seed=budget)


@pytest.mark.parametrize("sub_rows", SUB_ROWS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_drawn_budgets_match_the_oracle(family, sub_rows, data):
    budget = data.draw(st.integers(min_value=0, max_value=3_000),
                       label="budget")
    params = data.draw(st.sampled_from([{}] + VARIANTS[family]),
                       label="params")
    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1),
                     label="seed")
    # hypothesis forbids function-scoped fixtures; patch by hand
    saved = generators._SUB_ROWS
    generators._SUB_ROWS = sub_rows
    try:
        _assert_same(family, budget, params, seed=seed)
    finally:
        generators._SUB_ROWS = saved


def test_the_oracle_reproduces_every_golden_digest():
    """The reference loops are the source of the golden digests; this
    pins that moving them to the test side kept them byte-exact."""
    golden = json.loads(trace_goldens.GOLDEN_PATH.read_text())
    mismatches = [
        trace_goldens.case_key(spec, length)
        for spec in trace_goldens.all_specs()
        for length in trace_goldens.LENGTHS
        if trace_goldens.trace_digest(scalar_oracle.build(spec, length))
        != golden[trace_goldens.case_key(spec, length)]
    ]
    assert not mismatches, (
        f"{len(mismatches)} oracle digests diverge: "
        + ", ".join(mismatches[:10]))
