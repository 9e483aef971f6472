"""Golden-equivalence suite for the optimized simulation hot path.

Each case re-runs one recorded simulation (see ``tests/golden_cases.py``)
and asserts the produced payload — ``SimStats`` counters, the per-epoch
``EpochTelemetry`` sequence, and the coordination-action sequence — is
*byte-identical* to the golden JSON recorded from the pre-optimization
(seed) implementation.  Floats round-trip exactly through the JSON codec
(repr semantics), so a single bit of timing drift anywhere in the
cache/hierarchy/core/DRAM/predictor stack fails the suite.

Covers 3 workloads x 3 policies single-core plus one two-core mix.
"""

import hashlib
import json

import pytest

import golden_cases

CASE_NAMES = golden_cases.case_names()


def _describe_diff(got: dict, want: dict, path: str = "") -> str:
    """First point of divergence, for a readable assertion message."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(got.keys() | want.keys()):
            if key not in got:
                return f"{path}.{key}: missing in current output"
            if key not in want:
                return f"{path}.{key}: not present in golden"
            if got[key] != want[key]:
                return _describe_diff(got[key], want[key], f"{path}.{key}")
        return f"{path}: dicts compare unequal but no differing key found"
    if isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != golden {len(want)}"
        for index, (g, w) in enumerate(zip(got, want)):
            if g != w:
                return _describe_diff(g, w, f"{path}[{index}]")
        return f"{path}: lists compare unequal but no differing item found"
    return f"{path}: {got!r} != golden {want!r}"


@pytest.mark.parametrize("name", CASE_NAMES)
def test_bit_identical_to_seed_golden(name):
    path = golden_cases.golden_path(name)
    assert path.exists(), (
        f"golden file {path} missing; regenerate with "
        f"PYTHONPATH=src:tests python -m golden_cases"
    )
    want = json.loads(path.read_text())
    got = golden_cases.execute_case(name)
    assert got == want, _describe_diff(got, want)


def test_case_matrix_is_large_enough():
    """The satellite requires >=3 workloads x >=2 policies."""
    workloads = {w for w, _ in golden_cases.RUN_CASES}
    policies = {p for _, p in golden_cases.RUN_CASES}
    assert len(workloads) >= 3
    assert len(policies) >= 2


#: sha256 of ``tests/golden/`` for each ``ENGINE_SCHEMA``.  Request keys
#: hash the schema, not the simulator code, so a golden refresh (a
#: behaviour change) without a schema bump would let every warm result
#: store serve stale payloads.  A refresh adds its schema's digest here.
GOLDEN_DIGESTS = {
    1: "15f759b3426f4ad5a78ec08a45751858fa7f53c3d5a7994b2cda3f8aefc616b3",
    2: "322b363845776d7765ead247108e1a97d4e4b1ecd0a6b65a0b4509c82ab2404f",
}


def test_golden_refresh_bumps_engine_schema():
    from repro.engine.jobs import ENGINE_SCHEMA

    digest = hashlib.sha256()
    for path in sorted(golden_cases.GOLDEN_DIR.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    assert GOLDEN_DIGESTS.get(ENGINE_SCHEMA) == digest.hexdigest(), (
        "tests/golden/ changed: bump repro.engine.jobs.ENGINE_SCHEMA and "
        "pin the new digest under it")
