"""POPET's block-hashed keys against the scalar oracle (``popet_oracle``).

``PopetPredictor.block_keys`` hashes the five features of a whole trace
block in numpy; these tests pin it to the one-access-at-a-time Python
hash over the full int64 range (negative values stand for addresses
>= 2**63 in external traces), and the keyed predictor to the oracle
predictor over a long random access stream.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popet_oracle import OraclePopet, scalar_addr_key, scalar_key
from repro.ocp.hmp import HmpPredictor
from repro.ocp.popet import PopetPredictor
from repro.ocp.ttp import TtpPredictor

INT64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)
EDGES = [-(1 << 63), -(1 << 63) + 1, -65, -64, -1, 0, 1, 63, 64,
         (1 << 62), (1 << 63) - 1]


def _block_keys(rows):
    pcs = np.array([pc for pc, _ in rows], dtype=np.int64)
    addrs = np.array([addr for _, addr in rows], dtype=np.int64)
    return PopetPredictor().block_keys(pcs, addrs)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(INT64, INT64), max_size=67))
def test_block_keys_match_scalar_hash(rows):
    assert _block_keys(rows) == [scalar_addr_key(pc, addr)
                                 for pc, addr in rows]


@pytest.mark.parametrize("length", [0, 1, 3, 97, 997])
def test_block_keys_at_block_lengths(length):
    rng = random.Random(length)
    rows = [(rng.choice(EDGES + [rng.getrandbits(64) - (1 << 63)]),
             rng.choice(EDGES + [rng.getrandbits(64) - (1 << 63)]))
            for _ in range(length)]
    assert _block_keys(rows) == [scalar_addr_key(pc, addr)
                                 for pc, addr in rows]


@settings(max_examples=200, deadline=None)
@given(INT64, INT64.map(lambda a: a >> 6), st.integers(0, 63))
def test_one_row_key_matches_scalar_hash(pc, line, offset):
    assert PopetPredictor._row_key(pc, line, offset) == \
        scalar_key(pc, line, offset)


@pytest.mark.parametrize("ocp", [HmpPredictor, TtpPredictor])
def test_other_predictors_return_none_keys(ocp):
    keys = ocp().block_keys(np.arange(5, dtype=np.int64),
                            np.arange(5, dtype=np.int64))
    assert keys == [None] * 5


def _stream(seed, n):
    """Loads with reused PCs, strided and random lines, element offsets."""
    rng = random.Random(seed)
    pcs = [0x400000 + 0x40 * i for i in range(40)] + [-(1 << 40), -4]
    rows = []
    line = 1 << 20
    for _ in range(n):
        r = rng.random()
        if r < 0.5:
            line += 1
        elif r < 0.9:
            line = rng.randrange(1 << 24)
        else:
            line = rng.randrange(-(1 << 57), 1 << 57)
        rows.append((rng.choice(pcs), (line << 6) | (rng.randrange(8) * 8)))
    return rows


def test_keyed_popet_matches_oracle_over_random_stream():
    """Predictions and weights agree on 20k accesses, including trains
    with no predict before them and toggles of the enable gate."""
    rows = _stream(7, 20_000)
    rng = random.Random(11)
    keyed = PopetPredictor()
    oracle = OraclePopet()
    for lo in range(0, len(rows), 997):
        block = rows[lo:lo + 997]
        keys = _block_keys(block)
        for (pc, addr), key in zip(block, keys):
            line, offset = addr >> 6, addr & 63
            if rng.random() < 0.02:
                keyed.enabled = oracle.enabled = not keyed.enabled
            if rng.random() < 0.9:
                assert keyed.predict(pc, line, offset, key) == \
                    oracle.predict(pc, line, offset)
            went_offchip = rng.random() < 0.4 if pc & 0x40 else \
                rng.random() < 0.1
            keyed.train(pc, line, went_offchip, offset, key)
            oracle.train(pc, line, went_offchip, offset)
        assert keyed._weights == oracle.weights
    assert any(any(table) for table in oracle.weights)


def test_keyless_calls_hash_their_row():
    """Direct calls without a key (tests, tools) agree with keyed ones."""
    keyed, keyless = PopetPredictor(), PopetPredictor()
    rows = _stream(3, 2_000)
    for (pc, addr), key in zip(rows, _block_keys(rows)):
        line, offset = addr >> 6, addr & 63
        assert keyed.predict(pc, line, offset, key) == \
            keyless.predict(pc, line, offset)
        keyed.train(pc, line, bool(line & 1), offset, key)
        keyless.train(pc, line, bool(line & 1), offset)
    assert keyed._weights == keyless._weights
