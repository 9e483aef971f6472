"""Shared definition of the golden trace-equivalence suite and its recorder.

``tests/golden/trace_hashes.json`` pins a sha256 digest of the exact
``pcs``/``addrs``/``flags`` arrays for every registered workload spec
(evaluation + tuning + google + extended) at two trace lengths.  The
digests are recorded from the one-instruction-at-a-time reference loops
(``tests/scalar_oracle.py``), never from the code under test;
``tests/test_trace_equivalence.py`` rebuilds every trace through the
vectorized generators and asserts digest equality, so a single
differing byte in any array of any workload fails loudly.

The two lengths are deliberately unequal and non-round: emitters truncate
and pad at their budget boundary, so tail behaviour differs per length
and both tails are pinned.

Regenerate (only when generator behaviour changes *deliberately*)::

    PYTHONPATH=src:tests python -m trace_goldens
"""

from __future__ import annotations

import hashlib
import json
import pathlib

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "trace_hashes.json"

#: two lengths per spec: a short one and a longer non-round one, so the
#: budget-boundary truncation/padding paths are pinned at both.
LENGTHS = (2_500, 6_337)


def all_specs():
    from repro.workloads.suites import (
        evaluation_workloads,
        extended_workloads,
        google_workloads,
        tuning_workloads,
    )

    return (evaluation_workloads() + tuning_workloads()
            + google_workloads() + extended_workloads())


def trace_digest(trace) -> str:
    """sha256 over the raw bytes of the three parallel arrays."""
    h = hashlib.sha256()
    h.update(trace.pcs.tobytes())
    h.update(trace.addrs.tobytes())
    h.update(trace.flags.tobytes())
    return h.hexdigest()


def case_key(spec, length: int) -> str:
    return f"{spec.name}@{length}"


def record_all() -> None:
    import scalar_oracle

    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    digests = {}
    for spec in all_specs():
        for length in LENGTHS:
            digests[case_key(spec, length)] = trace_digest(
                scalar_oracle.build(spec, length))
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    record_all()
