"""Multi-core workload mixes (paper §6.1).

The paper builds 90 four-core and 90 eight-core mixes in three categories:

1. prefetcher-adverse mixes (workloads drawn from the adverse set),
2. prefetcher-friendly mixes (drawn from the friendly set), and
3. random mixes (drawn uniformly from all 100 workloads).

Workload class membership here is derived from the *pattern family*
(irregular families — pointer chase, hash probe, gups, graph — are the
adverse class; regular families the friendly class), which matches the
empirical classification the simulator produces without requiring a
characterisation run to build mixes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from .suites import WorkloadSpec, evaluation_workloads

ADVERSE_PATTERNS = frozenset(
    {"pointer_chase", "hash_probe", "gups", "graph"}
)


def pattern_class(spec: WorkloadSpec) -> str:
    """Static behaviour class of one workload ("adverse" / "friendly")."""
    if spec.pattern in ADVERSE_PATTERNS:
        return "adverse"
    if spec.pattern == "compute":
        # Large-working-set compute variants behave adversely.
        params = dict(spec.params)
        if params.get("working_set_lines", 0) >= (1 << 13):
            return "adverse"
    return "friendly"


@dataclass(frozen=True)
class WorkloadMix:
    """One multi-core mix: N workloads plus its category label."""

    name: str
    category: str
    workloads: Tuple[WorkloadSpec, ...]

    @property
    def num_cores(self) -> int:
        return len(self.workloads)


MIX_CATEGORIES = ("adverse", "friendly", "random")


def build_mixes(
    num_cores: int,
    mixes_per_category: int = 30,
    seed: int = 0x9C0DE,
) -> List[WorkloadMix]:
    """Construct the three mix categories, deterministically."""
    if num_cores < 1:
        raise ValueError("num_cores must be >= 1")
    if mixes_per_category < 1:
        raise ValueError("mixes_per_category must be >= 1")
    rng = random.Random(seed + num_cores)
    pool = list(evaluation_workloads())
    adverse = [w for w in pool if pattern_class(w) == "adverse"]
    friendly = [w for w in pool if pattern_class(w) == "friendly"]
    if not adverse or not friendly:
        raise RuntimeError("workload registry lost a behaviour class")

    mixes: List[WorkloadMix] = []
    sources = {
        "adverse": adverse,
        "friendly": friendly,
        "random": pool,
    }
    for category in MIX_CATEGORIES:
        source = sources[category]
        for index in range(mixes_per_category):
            chosen = tuple(
                source[rng.randrange(len(source))] for _ in range(num_cores)
            )
            mixes.append(
                WorkloadMix(
                    name=f"mix{num_cores}c.{category}.{index}",
                    category=category,
                    workloads=chosen,
                )
            )
    return mixes

