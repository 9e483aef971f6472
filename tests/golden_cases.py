"""Shared definition of the golden-equivalence cases and their recorder.

The golden files under ``tests/golden/`` pin the *exact* observable
output of the simulation core — ``SimStats`` counters, per-epoch
telemetry, and the coordination-action sequence — as JSON payloads
produced by :func:`repro.engine.jobs.encode_result` (whose floats
round-trip exactly).  ``tests/test_hotpath_equivalence.py`` re-runs each
case and asserts payload equality, so any change to the hot path that
perturbs a single counter or a single float of timing fails loudly.

The checked-in goldens were recorded from the pre-SoA (seed) hot path;
matching them proves the optimized core is bit-identical to it.

Regenerate (only when the simulator's behaviour changes *deliberately*;
remember to bump ``repro.engine.jobs.ENGINE_SCHEMA`` in that case)::

    PYTHONPATH=src:tests python -m golden_cases
"""

from __future__ import annotations

import json
import pathlib

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: (workload, policy) single-core cases: three memory behaviours
#: (streaming, pointer-chase, graph) x three policy shapes (no policy,
#: RL-coordinated with the hierarchy's feature tracker, TLP with its
#: prefetch filter).
RUN_CASES = [
    ("spec06.libquantum_like.0", "none"),
    ("spec06.libquantum_like.0", "athena"),
    ("spec06.mcf_like.0", "none"),
    ("spec06.mcf_like.0", "athena"),
    ("spec06.mcf_like.0", "tlp"),
    ("ligra.BFS.0", "none"),
    ("ligra.BFS.0", "athena"),
    ("ligra.BFS.0", "tlp"),
]

#: Multi-core cases: workloads sharing LLC + DRAM.  Covers the policy
#: epoch-boundary path (athena/tlp) and the policy-free pure-interleave
#: path, at two and four cores.
MIX_CASES = [
    (("spec06.libquantum_like.0", "spec06.mcf_like.0"), "athena"),
    (("spec06.mcf_like.0", "ligra.BFS.0"), "tlp"),
    (("spec06.libquantum_like.0", "spec06.mcf_like.0",
      "ligra.BFS.0", "spec06.xalancbmk_like.0"), "none"),
]

TRACE_LENGTH = 6_000
EPOCH_LENGTH = 150
WARMUP_FRACTION = 0.35


def _requests():
    from repro.engine.jobs import MixRequest, RunRequest
    from repro.experiments.configs import CacheDesign
    from repro.workloads.suites import find_workload

    design = CacheDesign.cd1()
    for workload, policy in RUN_CASES:
        name = f"run__{workload}__{policy}"
        yield name, RunRequest(
            spec=find_workload(workload),
            trace_length=TRACE_LENGTH,
            design=design,
            policy_name=policy,
            epoch_length=EPOCH_LENGTH,
            warmup_fraction=WARMUP_FRACTION,
        )
    for workloads, policy in MIX_CASES:
        name = "mix__" + "__".join(workloads) + f"__{policy}"
        yield name, MixRequest(
            workloads=tuple(find_workload(w) for w in workloads),
            trace_length=TRACE_LENGTH,
            design=design,
            policy_name=policy,
            epoch_length=EPOCH_LENGTH,
            warmup_fraction=0.2,
        )


def case_names():
    return [name for name, _ in _requests()]


def execute_case(name: str) -> dict:
    """Run one case and return its canonical JSON payload."""
    from repro.engine.jobs import encode_result

    for case_name, request in _requests():
        if case_name == name:
            payload = encode_result(request.execute())
            # Round-trip through JSON so the comparison sees exactly what
            # a decoded golden file sees (e.g. tuples become lists).
            return json.loads(json.dumps(payload))
    raise KeyError(name)


def golden_path(name: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{name}.json"


def record_all() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, _ in _requests():
        payload = execute_case(name)
        path = golden_path(name)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"recorded {path}")


if __name__ == "__main__":
    record_all()
