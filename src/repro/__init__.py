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
    from .api.results import RunResult

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
__all__ = _EXPORTS + ["quick_run"]


def quick_run(workload: str = "ligra.BFS.0", policy: str = "athena",
              design: str = "cd1", length: int = 24_000,
              policy_options: Optional[dict] = None) -> RunResult:
    """Run one workload under one policy and report IPC + speedup.

    ``design`` selects the paper's cache design (``cd1`` ... ``cd4``);
    the speedup baseline is the same design with every prefetcher and the
    OCP removed, exactly as the paper normalises its figures.
    ``policy_options`` are forwarded to the policy constructor (for
    ``athena`` they become :class:`AthenaConfig` fields, e.g.
    ``{"seed": 7}``); unsupported options raise :exc:`ValueError`.

    A one-off run: a :class:`RunSpec` resolved by a store-less
    :class:`Session` at warmup 0.2 and one Athena seed.  The result's
    ``ipc``, ``baseline_ipc`` and ``speedup`` are the paper's
    per-workload numbers; ``result`` is the policy run's
    :class:`SimulationResult`, for epoch-level inspection.
    """
    from .api import RunSpec, Session
    from .workloads.suites import ReproScale

    epoch_length = max(100, length // 40)
    spec = RunSpec(workload=workload, design=design, policy=policy,
                   policy_params=policy_options or {},
                   trace_length=length, epoch_length=epoch_length,
                   warmup_fraction=0.2)
    scale = ReproScale("run", trace_length=length, workloads_per_figure=1,
                       epoch_length=epoch_length, policy_seeds=1)
    with Session(scale=scale) as session:
        return session.run(spec)
