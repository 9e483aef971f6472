"""repro — a from-scratch Python reproduction of *Athena: Synergizing Data
Prefetching and Off-Chip Prediction via Online Reinforcement Learning*
(HPCA 2026).

The package is organised as:

* :mod:`repro.sim` — ChampSim-style trace-driven timing simulator
  (analytical OoO core, three-level caches, banked bandwidth-limited DRAM).
* :mod:`repro.prefetchers` — IPCP, Berti, Pythia, SPP+PPF, MLOP, SMS.
* :mod:`repro.ocp` — POPET, HMP, TTP off-chip predictors.
* :mod:`repro.core` — Athena itself: QVStore, epoch feature tracker,
  composite reward, SARSA agent.
* :mod:`repro.policies` — coordination policies: Athena, TLP, HPAC, MAB,
  Naive, fixed-action (StaticBest oracle building block).
* :mod:`repro.workloads` — deterministic synthetic trace suite standing in
  for the paper's 100 SPEC/PARSEC/Ligra/CVP traces.
* :mod:`repro.experiments` — cache designs CD1-CD4 and the per-figure
  experiment harness.

* :mod:`repro.api` — the typed, declarative experiment SDK: spec
  dataclasses with JSON/TOML round-trips, the unified component
  registry, and the Session execution facade.

Quickstart::

    from repro import quick_run
    result = quick_run("ligra.BFS.0", policy="athena")
    print(result.ipc)

or, through the SDK::

    from repro.api import RunSpec, Session
    with Session() as session:
        print(session.run(RunSpec(workload="ligra.BFS.0",
                                  policy="athena")).speedup)
"""

from __future__ import annotations

from typing import Optional

from .core.agent import AthenaAgent
from .core.config import AthenaConfig, PAPER_CONFIG
from .policies.athena import AthenaPolicy
from .policies.base import CoordinationAction, NaivePolicy
from .policies.hpac import HpacPolicy
from .policies.mab import MabPolicy
from .policies.tlp import TlpPolicy
from .sim.region import SimulationResult
from .sim.simulator import Simulator

__version__ = "1.0.0"

__all__ = [
    "AthenaAgent",
    "AthenaConfig",
    "AthenaPolicy",
    "CoordinationAction",
    "HpacPolicy",
    "MabPolicy",
    "NaivePolicy",
    "PAPER_CONFIG",
    "SimulationResult",
    "Simulator",
    "TlpPolicy",
    "QuickRunResult",
    "quick_run",
    # lazily re-exported from repro.api (PEP 562):
    "ExperimentSpec",
    "MixSpec",
    "RunSpec",
    "Session",
    "SweepSpec",
]

#: SDK names resolved on first access so ``import repro`` stays light.
_API_EXPORTS = frozenset(
    {"Session", "RunSpec", "MixSpec", "SweepSpec", "ExperimentSpec"}
)


def __getattr__(name: str):
    if name in _API_EXPORTS:
        from . import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class QuickRunResult:
    """Summary of a :func:`quick_run`: the policy run plus its baseline.

    Attributes mirror what the paper reports per workload: ``ipc``,
    ``baseline_ipc`` (no prefetching, no OCP), and their ratio
    ``speedup``.  The full :class:`SimulationResult` is available as
    ``result`` for epoch-level inspection.
    """

    def __init__(self, result: SimulationResult, baseline_ipc: float) -> None:
        self.result = result
        self.ipc = result.ipc
        self.baseline_ipc = baseline_ipc
        self.speedup = result.ipc / baseline_ipc if baseline_ipc else 0.0

    def __repr__(self) -> str:
        return (
            f"QuickRunResult({self.result.workload!r}, ipc={self.ipc:.4f}, "
            f"speedup={self.speedup:.4f})"
        )


def quick_run(workload: str = "ligra.BFS.0", policy: str = "athena",
              design: str = "cd1", length: int = 24_000,
              policy_options: Optional[dict] = None) -> QuickRunResult:
    """Run one workload under one policy and report IPC + speedup.

    ``design`` selects the paper's cache design (``cd1`` ... ``cd4``);
    the speedup baseline is the same design with every prefetcher and the
    OCP removed, exactly as the paper normalises its figures.
    ``policy_options`` are forwarded to the policy constructor (for
    ``athena`` they become :class:`AthenaConfig` fields, e.g.
    ``{"seed": 7}``); unsupported options raise :exc:`ValueError`.
    """
    from .api.registry import make_design
    from .engine.jobs import _trace_for
    from .experiments.configs import build_hierarchy
    from .policies import make_policy
    from .workloads.suites import find_workload

    cache_design = make_design(design)
    spec = find_workload(workload)
    epoch_length = max(100, length // 40)
    # _trace_for honours the REPRO_STREAM_BLOCK execution-time gate, so
    # one-off runs stream exactly like engine-routed requests.
    result = Simulator(
        _trace_for(spec, length),
        build_hierarchy(cache_design),
        policy=make_policy(policy, **(policy_options or {})),
        epoch_length=epoch_length,
    ).run()
    baseline = Simulator(
        _trace_for(spec, length),
        build_hierarchy(cache_design.without_mechanisms()),
        epoch_length=epoch_length,
    ).run()
    return QuickRunResult(result, baseline.ipc)
