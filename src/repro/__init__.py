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

from typing import TYPE_CHECKING, Optional

from ._lazy import lazy_exports

if TYPE_CHECKING:
    from .sim.region import SimulationResult

__version__ = "1.0.0"

#: every name resolves on first access, so ``import repro`` loads no
#: simulator, policy or SDK module until one is used.
_EXPORTS, __getattr__, __dir__ = lazy_exports(globals(), {
    ".api": ("ExperimentSpec", "MixSpec", "RunSpec", "Session", "SweepSpec"),
    ".core.agent": ("AthenaAgent",),
    ".core.config": ("AthenaConfig", "PAPER_CONFIG"),
    ".policies.athena": ("AthenaPolicy",),
    ".policies.base": ("NaivePolicy",),
    ".policies.hpac": ("HpacPolicy",),
    ".policies.mab": ("MabPolicy",),
    ".policies.tlp": ("TlpPolicy",),
    ".sim.region": ("SimulationResult",),
    ".sim.simulator": ("Simulator",),
    ".sim.stats": ("CoordinationAction",),
})
__all__ = _EXPORTS + ["QuickRunResult", "quick_run"]


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
    from .sim.simulator import Simulator
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
