"""Automated design-space exploration (paper §5.3, Table 3).

The paper selects Athena's state features by greedy forward selection and
tunes reward weights / hyperparameters by grid search, using 20 dedicated
tuning workloads (disjoint from the 100 evaluation workloads), all on CD1
with POPET + Pythia.  This module reproduces that process at reproduction
scale: the grids are coarsened (full 11-point grids over five parameters
are ~10^5 simulations even before feature selection) but the procedure —
greedy feature forward-selection followed by grid refinement on the tuning
set only — is the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import AthenaConfig, RewardWeights
from ..sim.stats import CANDIDATE_FEATURES
from ..workloads.suites import tuning_workloads
from .configs import CacheDesign
from .runner import ExperimentContext, geomean


@dataclass
class DseResult:
    """Outcome of the automated design-space exploration."""

    selected_features: Tuple[str, ...]
    best_config: AthenaConfig
    best_score: float
    feature_trace: List[Tuple[str, float]] = field(default_factory=list)
    grid_trace: List[Tuple[Dict[str, float], float]] = field(
        default_factory=list
    )

    def format_table(self) -> str:
        lines = ["Table 3 (reproduced): DSE-selected configuration",
                 "-" * 48]
        lines.append(
            "Selected features: " + ", ".join(self.selected_features)
        )
        cfg = self.best_config
        lines.append(
            f"Hyperparameters: alpha={cfg.alpha} gamma={cfg.gamma} "
            f"epsilon={cfg.epsilon} tau={cfg.tau}"
        )
        w = cfg.reward_weights
        lines.append(
            f"Reward weights: cycle={w.cycles} LLCm={w.llc_misses} "
            f"LLCt={w.llc_miss_latency} load={w.loads} "
            f"MBr={w.mispredicted_branches}"
        )
        lines.append(f"Tuning-set geomean speedup: {self.best_score:.4f}")
        lines.append("Feature forward-selection trace:")
        for feature, score in self.feature_trace:
            lines.append(f"  +{feature}: {score:.4f}")
        return "\n".join(lines)


def _scores(ctx: ExperimentContext, design: CacheDesign, workloads,
            configs: Sequence[AthenaConfig]) -> List[float]:
    """Each Athena config's tuning-set geomean speedup, all resolved as
    one engine batch."""
    speedup = ctx.speedups([(spec, design, "athena", config)
                            for config in configs for spec in workloads])
    return [
        geomean([speedup[spec, design, "athena", config]
                 for spec in workloads])
        for config in configs
    ]


def select_features(
    ctx: ExperimentContext,
    design: CacheDesign,
    workloads,
    base_config: AthenaConfig,
    max_features: int = 4,
    candidates: Sequence[str] = CANDIDATE_FEATURES,
) -> Tuple[Tuple[str, ...], List[Tuple[str, float]]]:
    """Greedy forward feature selection (paper §5.3.1)."""
    selected: List[str] = []
    trace: List[Tuple[str, float]] = []
    best_so_far = 0.0
    remaining = list(candidates)
    while remaining and len(selected) < max_features:
        candidate_configs = [
            base_config.with_updates(
                features=tuple(selected + [feature]), stateless=False
            )
            for feature in remaining
        ]
        scored = sorted(
            zip(_scores(ctx, design, workloads, candidate_configs),
                remaining),
            reverse=True,
        )
        best_score, best_feature = scored[0]
        if selected and best_score <= best_so_far:
            break  # diminishing returns (paper stops after 4 features)
        selected.append(best_feature)
        remaining.remove(best_feature)
        best_so_far = best_score
        trace.append((best_feature, best_score))
    return tuple(selected), trace


def grid_search(
    ctx: ExperimentContext,
    design: CacheDesign,
    workloads,
    features: Tuple[str, ...],
    alphas: Sequence[float] = (0.2, 0.4, 0.6),
    gammas: Sequence[float] = (0.2, 0.6),
    epsilons: Sequence[float] = (0.0, 0.05),
    cycle_weights: Sequence[float] = (1.0, 1.6),
) -> Tuple[AthenaConfig, float, List[Tuple[Dict[str, float], float]]]:
    """Coarse grid search over hyperparameters and the cycle weight."""
    best_config: Optional[AthenaConfig] = None
    best_score = -1.0
    trace: List[Tuple[Dict[str, float], float]] = []
    grid = [
        (alpha, gamma, epsilon, cycle_weight)
        for alpha in alphas
        for gamma in gammas
        for epsilon in epsilons
        for cycle_weight in cycle_weights
    ]
    configs = [
        AthenaConfig(
            alpha=alpha,
            gamma=gamma,
            epsilon=epsilon,
            features=features,
            reward_weights=RewardWeights(cycles=cycle_weight),
        )
        for alpha, gamma, epsilon, cycle_weight in grid
    ]
    scores = _scores(ctx, design, workloads, configs)
    for (alpha, gamma, epsilon, cycle_weight), config, score in zip(
            grid, configs, scores):
        point = {
            "alpha": alpha,
            "gamma": gamma,
            "epsilon": epsilon,
            "cycle_weight": cycle_weight,
        }
        trace.append((point, score))
        if score > best_score:
            best_score = score
            best_config = config
    assert best_config is not None
    return best_config, best_score, trace


def run_dse(
    ctx: Optional[ExperimentContext] = None,
    num_tuning_workloads: int = 8,
    max_features: int = 4,
    quick: bool = True,
) -> DseResult:
    """Full DSE pipeline: feature selection then grid refinement.

    ``quick`` shrinks the grids so the pipeline runs in benchmark time;
    pass ``quick=False`` for the full (slow) sweep.
    """
    ctx = ctx or ExperimentContext()
    design = CacheDesign.cd1()
    workloads = list(tuning_workloads())[:num_tuning_workloads]
    base = AthenaConfig()

    features, feature_trace = select_features(
        ctx, design, workloads, base, max_features=max_features
    )
    if quick:
        config, score, grid_trace = grid_search(
            ctx, design, workloads, features,
            alphas=(0.4, 0.6), gammas=(0.2,), epsilons=(0.05,),
            cycle_weights=(1.6,),
        )
    else:
        config, score, grid_trace = grid_search(
            ctx, design, workloads, features
        )
    return DseResult(
        selected_features=features,
        best_config=config,
        best_score=score,
        feature_trace=feature_trace,
        grid_trace=grid_trace,
    )
