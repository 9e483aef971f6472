"""Per-figure experiment drivers.

One function per table/figure of the paper's evaluation.  Every function
returns a :class:`FigureResult` whose rows are the series the paper plots,
so the benchmark harness can print exactly the numbers the corresponding
figure reports.  docs/reproduction.md records where the drivers deviate
from the paper and which claims hold only within a tolerance.

Scaling: the drivers run at the :class:`~repro.workloads.suites.ReproScale`
of their :class:`~repro.experiments.runner.ExperimentContext` — absolute
speedups differ from the paper (different substrate, 4 orders of magnitude
shorter traces), the *shape* is what each figure reproduces.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import AthenaConfig
from ..workloads.mixes import MIX_CATEGORIES, build_mixes
from ..workloads.suites import WorkloadSpec, google_workloads
from .configs import CacheDesign
from .runner import ExperimentContext, geomean, split_categories, static_best


@dataclass
class FigureResult:
    """Rows of one regenerated table/figure."""

    figure_id: str
    title: str
    rows: List[Tuple[str, Dict[str, float]]] = field(default_factory=list)
    notes: str = ""

    def add(self, label: str, **series: float) -> None:
        self.rows.append((label, dict(series)))

    def series(self, name: str) -> List[float]:
        return [values[name] for _, values in self.rows if name in values]

    def row(self, label: str) -> Dict[str, float]:
        for row_label, values in self.rows:
            if row_label == label:
                return values
        raise KeyError(f"{self.figure_id}: no row {label!r}")

    def format_table(self) -> str:
        columns: List[str] = []
        for _, values in self.rows:
            for key in values:
                if key not in columns:
                    columns.append(key)
        width = max([len(label) for label, _ in self.rows] + [8])
        header = f"{self.figure_id}: {self.title}"
        lines = [header, "-" * len(header)]
        lines.append(
            " ".join([" " * width] + [f"{c:>12}" for c in columns])
        )
        for label, values in self.rows:
            cells = [
                f"{values[c]:>12.4f}" if c in values else " " * 12
                for c in columns
            ]
            lines.append(" ".join([label.ljust(width)] + cells))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


def _categories(ctx: ExperimentContext, design: CacheDesign,
                workloads: Sequence[WorkloadSpec],
                speedup: Dict[tuple, float]):
    """The category groups of ``workloads``, read from a
    :meth:`~ExperimentContext.speedups` map that holds their
    classification cells."""
    friendly, adverse = split_categories(workloads, [
        speedup[cell] for cell in ctx.classification_cells(design, workloads)
    ])
    groups = [("Overall", list(workloads))]
    if adverse:
        groups.insert(0, ("Prefetcher-adverse", adverse))
    if friendly:
        groups.insert(1, ("Prefetcher-friendly", friendly))
    return groups


def _suite_groups(workloads: Sequence[WorkloadSpec]):
    groups: Dict[str, List[WorkloadSpec]] = {}
    for spec in workloads:
        groups.setdefault(spec.suite, []).append(spec)
    return sorted(groups.items())


#: a figure series: column label -> (design, policy[, athena_config])
Series = Dict[str, tuple]


def _cells(workloads: Sequence[WorkloadSpec], series: Series) -> List[tuple]:
    """The :meth:`~ExperimentContext.speedups` cell of every workload in
    every series."""
    return [(spec, *pair) for pair in series.values() for spec in workloads]


def _geomeans(speedup: Dict[tuple, float], workloads: Sequence[WorkloadSpec],
              series: Series) -> Dict[str, float]:
    """Each series' geomean speedup over ``workloads``."""
    return {
        name: geomean([speedup[(spec, *pair)] for spec in workloads])
        for name, pair in series.items()
    }


def _geomean_rows(ctx: ExperimentContext, result: FigureResult,
                  rows: Sequence[Tuple[str, Series]]) -> FigureResult:
    """Add one row of pool geomeans per ``(label, series)``; every
    row's cells resolve as one engine batch."""
    workloads = ctx.workload_pool()
    speedup = ctx.speedups(
        [cell for _, series in rows for cell in _cells(workloads, series)])
    for label, series in rows:
        result.add(label, **_geomeans(speedup, workloads, series))
    return result


_POLICY_ROW_MAPPING = {"Naive": "none", "HPAC": "hpac", "MAB": "mab",
                       "Athena": "athena"}


def _speedup_figure(
    ctx: ExperimentContext,
    figure_id: str,
    title: str,
    design: CacheDesign,
    series: Dict[str, Tuple[CacheDesign, str]],
    include_suites: bool = True,
    include_static_best: bool = False,
) -> FigureResult:
    """Shared driver for the CD1-CD4 bar figures (7, 9, 10, 11, 19)."""
    result = FigureResult(figure_id, title)
    workloads = ctx.workload_pool()
    static_cells = {
        spec: ctx.static_best_cells(spec, design) if include_static_best
        else [] for spec in workloads
    }
    # The figure's whole run matrix is one engine batch: the
    # classification reference runs, every series cell and the
    # StaticBest combinations.
    speedup = ctx.speedups(
        ctx.classification_cells(design, workloads)
        + _cells(workloads, series)
        + [cell for cells in static_cells.values() for cell in cells]
    )
    groups = _suite_groups(workloads) if include_suites else []
    groups += _categories(ctx, design, workloads, speedup)
    for label, group in groups:
        row = _geomeans(speedup, group, series)
        if include_static_best:
            row["StaticBest"] = geomean([
                static_best(speedup[cell] for cell in static_cells[spec])
                for spec in group
            ])
        result.add(label, **row)
    return result


# ---------------------------------------------------------------------------
# Motivation figures (Section 2)
# ---------------------------------------------------------------------------

def fig01_motivation_lines(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Figure 1: POPET vs Pythia per-workload speedups, sorted by Pythia."""
    ctx = ctx or ExperimentContext()
    design = CacheDesign.cd1()
    workloads = ctx.workload_pool()
    popet, pythia = design.only_ocp(), design.only_prefetchers()
    speedup = ctx.speedups(
        [(spec, d) for d in (popet, pythia) for spec in workloads])
    points = [(spec.name, speedup[spec, popet], speedup[spec, pythia])
              for spec in workloads]
    points.sort(key=lambda p: p[2])
    result = FigureResult(
        "Fig1", "POPET vs Pythia speedup line graph (sorted by Pythia)"
    )
    for name, popet, pythia in points:
        result.add(name, POPET=popet, Pythia=pythia)
    adverse = sum(1 for p in points if p[2] < 1.0)
    result.notes = (
        f"{adverse}/{len(points)} workloads are prefetcher-adverse "
        "(paper: 40/100)"
    )
    return result


def fig02_naive_vs_staticbest(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Figure 2: POPET/Pythia/Naive/StaticBest geomeans by category."""
    ctx = ctx or ExperimentContext()
    design = CacheDesign.cd1()
    return _speedup_figure(
        ctx,
        "Fig2",
        "Naive combining fails to realise the joint potential",
        design,
        series={
            "POPET": (design.only_ocp(), "none"),
            "Pythia": (design.only_prefetchers(), "none"),
            "Naive": (design, "none"),
        },
        include_suites=False,
        include_static_best=True,
    )


def fig03_offchip_fill_accuracy(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Figure 3: inaccurate off-chip prefetch fills, L1D vs L2C."""
    ctx = ctx or ExperimentContext()
    workloads = ctx.workload_pool()
    result = FigureResult(
        "Fig3", "Fraction of off-chip prefetch fills that are inaccurate"
    )
    levels = (
        ("IPCP@L1D", CacheDesign.cd2().only_prefetchers(), "l1d"),
        ("Pythia@L2C", CacheDesign.cd1().only_prefetchers(), "l2c"),
    )
    run = ctx.runs(
        [(spec, design) for _, design, _ in levels for spec in workloads])
    for label, design, level in levels:
        fractions = []
        for spec in workloads:
            stats = run[spec, design].stats
            fills = (stats.prefetch_fills_offchip_l1d if level == "l1d"
                     else stats.prefetch_fills_offchip_l2c)
            if fills >= 10:
                fractions.append(stats.offchip_fill_inaccuracy_at(level))
        fractions.sort()
        if not fractions:
            continue
        quartiles = statistics.quantiles(fractions, n=4)
        result.add(
            label,
            mean=statistics.fmean(fractions),
            q1=quartiles[0],
            median=quartiles[1],
            q3=quartiles[2],
        )
    result.notes = "paper: 50.6% mean at L1D vs 28.1% at L2C"
    return result


def fig04_prior_policies(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Figure 4: Naive/HPAC/MAB vs StaticBest in CD1."""
    ctx = ctx or ExperimentContext()
    design = CacheDesign.cd1()
    return _speedup_figure(
        ctx,
        "Fig4",
        "Prior coordination policies leave performance behind",
        design,
        series={
            "Naive": (design, "none"),
            "HPAC": (design, "hpac"),
            "MAB": (design, "mab"),
        },
        include_suites=False,
        include_static_best=True,
    )


# ---------------------------------------------------------------------------
# Main evaluation: CD1-CD4 (Figures 7-11)
# ---------------------------------------------------------------------------

def fig07_cd1(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Figure 7: CD1 (POPET + Pythia@L2C) across all policies."""
    ctx = ctx or ExperimentContext()
    design = CacheDesign.cd1()
    return _speedup_figure(
        ctx, "Fig7", "Speedup in cache design 1 (CD1)", design,
        series={
            "POPET": (design.only_ocp(), "none"),
            "Pythia": (design.only_prefetchers(), "none"),
            "Naive": (design, "none"),
            "HPAC": (design, "hpac"),
            "MAB": (design, "mab"),
            "Athena": (design, "athena"),
        },
    )


def fig08a_category_boxes(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Figure 8(a): per-category speedup distributions in CD1."""
    ctx = ctx or ExperimentContext()
    design = CacheDesign.cd1()
    workloads = ctx.workload_pool()
    result = FigureResult(
        "Fig8a", "Workload-category speedup distribution in CD1"
    )
    configs = {
        "Naive": (design, "none"),
        "HPAC": (design, "hpac"),
        "MAB": (design, "mab"),
        "Athena": (design, "athena"),
    }
    speedup = ctx.speedups(ctx.classification_cells(design, workloads)
                           + _cells(workloads, configs))
    for category, group in _categories(ctx, design, workloads, speedup):
        for name, pair in configs.items():
            speedups = sorted(speedup[(spec, *pair)] for spec in group)
            if len(speedups) >= 4:
                quartiles = statistics.quantiles(speedups, n=4)
                q1, median, q3 = quartiles
            else:
                q1 = median = q3 = statistics.median(speedups)
            result.add(
                f"{category}/{name}",
                minimum=speedups[0],
                q1=q1,
                mean=statistics.fmean(speedups),
                q3=q3,
                maximum=speedups[-1],
            )
    return result


def fig08b_athena_vs_staticbest(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Figure 8(b): Athena approaches the StaticBest oracle in CD1."""
    ctx = ctx or ExperimentContext()
    design = CacheDesign.cd1()
    return _speedup_figure(
        ctx,
        "Fig8b",
        "Athena vs StaticBest in CD1",
        design,
        series={
            "Naive": (design, "none"),
            "HPAC": (design, "hpac"),
            "MAB": (design, "mab"),
            "Athena": (design, "athena"),
        },
        include_suites=False,
        include_static_best=True,
    )


def fig09_cd2(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Figure 9: CD2 (POPET + IPCP@L1D), the design TLP was built for."""
    ctx = ctx or ExperimentContext()
    design = CacheDesign.cd2()
    return _speedup_figure(
        ctx, "Fig9", "Speedup in cache design 2 (CD2)", design,
        series={
            "POPET": (design.only_ocp(), "none"),
            "IPCP": (design.only_prefetchers(), "none"),
            "Naive": (design, "none"),
            "TLP": (design, "tlp"),
            "HPAC": (design, "hpac"),
            "MAB": (design, "mab"),
            "Athena": (design, "athena"),
        },
    )


def fig10_cd3(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Figure 10: CD3 (POPET + SMS + Pythia at L2C)."""
    ctx = ctx or ExperimentContext()
    design = CacheDesign.cd3()
    return _speedup_figure(
        ctx, "Fig10", "Speedup in cache design 3 (CD3)", design,
        series={
            "POPET": (design.only_ocp(), "none"),
            "SMS+Pythia": (design.only_prefetchers(), "none"),
            "Naive": (design, "none"),
            "HPAC": (design, "hpac"),
            "MAB": (design, "mab"),
            "Athena": (design, "athena"),
        },
    )


def fig11_cd4(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Figure 11: CD4 (POPET + IPCP@L1D + Pythia@L2C)."""
    ctx = ctx or ExperimentContext()
    design = CacheDesign.cd4()
    return _speedup_figure(
        ctx, "Fig11", "Speedup in cache design 4 (CD4)", design,
        series={
            "POPET": (design.only_ocp(), "none"),
            "IPCP+Pythia": (design.only_prefetchers(), "none"),
            "Naive": (design, "none"),
            "TLP": (design, "tlp"),
            "HPAC": (design, "hpac"),
            "MAB": (design, "mab"),
            "Athena": (design, "athena"),
        },
    )


# ---------------------------------------------------------------------------
# Sensitivity studies (Figures 12-14)
# ---------------------------------------------------------------------------

_CD1_POLICIES = ("Naive", "HPAC", "MAB", "Athena")


def _policy_series(design: CacheDesign) -> Series:
    return {label: (design, _POLICY_ROW_MAPPING[label])
            for label in _CD1_POLICIES}


def fig12a_l2c_prefetcher_sweep(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Figure 12(a): CD1 with Pythia / SPP+PPF / MLOP / SMS at L2C."""
    ctx = ctx or ExperimentContext()
    result = FigureResult(
        "Fig12a", "Sensitivity to the L2C prefetcher type (CD1)"
    )
    return _geomean_rows(ctx, result, [
        (prefetcher, _policy_series(CacheDesign.cd1(l2c=prefetcher)))
        for prefetcher in ("pythia", "spp_ppf", "mlop", "sms")
    ])


def fig12b_ocp_sweep(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Figure 12(b): CD1 with POPET / HMP / TTP as the OCP."""
    ctx = ctx or ExperimentContext()
    result = FigureResult("Fig12b", "Sensitivity to the OCP type (CD1)")
    rows = []
    for ocp in ("popet", "hmp", "ttp"):
        design = CacheDesign.cd1(ocp=ocp)
        rows.append((ocp, {**_policy_series(design),
                           "OCP-only": (design.only_ocp(), "none")}))
    return _geomean_rows(ctx, result, rows)


def fig12c_ocp_latency_sweep(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Figure 12(c): CD1 swept over the OCP request issue latency."""
    ctx = ctx or ExperimentContext()
    result = FigureResult(
        "Fig12c", "Sensitivity to OCP request issue latency (CD1)"
    )
    rows = []
    for latency in (6, 18, 30):
        design = CacheDesign.cd1().with_ocp_issue_latency(latency)
        rows.append((f"{latency}cyc", {
            **_policy_series(design),
            "POPET-only": (design.only_ocp(), "none"),
        }))
    return _geomean_rows(ctx, result, rows)


def fig13_l1d_prefetcher_sweep(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Figure 13: CD4 with IPCP vs Berti at L1D."""
    ctx = ctx or ExperimentContext()
    result = FigureResult(
        "Fig13", "Sensitivity to the L1D prefetcher type (CD4)"
    )
    rows = []
    for l1d in ("ipcp", "berti"):
        design = CacheDesign.cd4(l1d=l1d)
        rows.append((l1d, {
            **_policy_series(design),
            "TLP": (design, "tlp"),
            "Prefetchers": (design.only_prefetchers(), "none"),
        }))
    return _geomean_rows(ctx, result, rows)


def fig14_bandwidth_sweep(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Figure 14: CD4 swept over main-memory bandwidth."""
    ctx = ctx or ExperimentContext()
    result = FigureResult(
        "Fig14", "Sensitivity to main memory bandwidth (CD4)"
    )
    rows = []
    for bandwidth in (1.6, 3.2, 6.4, 12.8):
        design = CacheDesign.cd4(bandwidth_gbps=bandwidth)
        rows.append((f"{bandwidth}GB/s", {
            **_policy_series(design),
            "TLP": (design, "tlp"),
            "POPET-only": (design.only_ocp(), "none"),
            "Prefetchers": (design.only_prefetchers(), "none"),
        }))
    return _geomean_rows(ctx, result, rows)


# ---------------------------------------------------------------------------
# Multi-core (Figures 15-16)
# ---------------------------------------------------------------------------

def _multicore_figure(ctx: ExperimentContext, figure_id: str, title: str,
                      num_cores: int, mixes_per_category: int) -> FigureResult:
    design = CacheDesign.cd1()
    baseline_design = design.without_mechanisms()
    mixes = build_mixes(num_cores, mixes_per_category)
    result = FigureResult(figure_id, title)
    policy_names = ("naive", "hpac", "mab", "athena")
    run = ctx.mixes(
        [(mix, baseline_design, "none") for mix in mixes]
        + [(mix, design, policy) for mix in mixes for policy in policy_names]
    )
    per_category: Dict[str, Dict[str, List[float]]] = {
        c: {p: [] for p in policy_names} for c in MIX_CATEGORIES
    }
    for mix in mixes:
        baseline = run[mix, baseline_design, "none"]
        for policy in policy_names:
            per_category[mix.category][policy].append(
                run[mix, design, policy].weighted_speedup(baseline)
            )
    label_map = {"naive": "Naive", "hpac": "HPAC", "mab": "MAB",
                 "athena": "Athena"}
    overall: Dict[str, List[float]] = {p: [] for p in policy_names}
    for category in MIX_CATEGORIES:
        row = {}
        for policy in policy_names:
            values = per_category[category][policy]
            row[label_map[policy]] = geomean(values)
            overall[policy].extend(values)
        result.add(f"{category}-mix", **row)
    result.add(
        "Overall",
        **{label_map[p]: geomean(overall[p]) for p in policy_names},
    )
    return result


def fig15_fourcore(ctx: Optional[ExperimentContext] = None,
                   mixes_per_category: int = 3) -> FigureResult:
    """Figure 15: four-core mixes, CD1, per-core Athena instances."""
    ctx = ctx or ExperimentContext()
    return _multicore_figure(
        ctx, "Fig15", "Speedup in four-core workload mixes", 4,
        mixes_per_category,
    )


def fig16_eightcore(ctx: Optional[ExperimentContext] = None,
                    mixes_per_category: int = 2) -> FigureResult:
    """Figure 16: eight-core mixes, CD1."""
    ctx = ctx or ExperimentContext()
    return _multicore_figure(
        ctx, "Fig16", "Speedup in eight-core workload mixes", 8,
        mixes_per_category,
    )


# ---------------------------------------------------------------------------
# Understanding Athena (Figures 17-18) and generality (Figure 19)
# ---------------------------------------------------------------------------

def fig17_case_study(ctx: Optional[ExperimentContext] = None,
                     workload: str = "cvp.compute_int_0") -> FigureResult:
    """Figure 17: Athena's action distribution at 3.2 vs 25.6 GB/s."""
    ctx = ctx or ExperimentContext()
    from ..workloads.suites import ReproScale, find_workload

    # The case study is only a handful of runs, so give the agent a longer
    # trace than the ambient scale: the action distribution needs enough
    # epochs past the learning transient to be meaningful.
    if ctx.scale.trace_length < 24_000:
        ctx = ExperimentContext(ReproScale(
            "fig17", trace_length=24_000, workloads_per_figure=1,
            epoch_length=max(200, ctx.scale.epoch_length),
        ), engine=ctx.engine)
    spec = find_workload(workload)
    result = FigureResult(
        "Fig17",
        f"Athena action distribution on {workload} vs memory bandwidth",
    )
    seeds = (0x47EA, 0x51DE, 0x7357)
    designs = {bandwidth: CacheDesign.cd1(bandwidth_gbps=bandwidth)
               for bandwidth in (3.2, 25.6)}
    athena = AthenaConfig(seed=seeds[0])
    # Average the action mix over a few agent seeds: a single run's
    # distribution is dominated by the exploration path at this scale.
    run = ctx.runs([(spec, design, "athena", AthenaConfig(seed=seed))
                    for design in designs.values() for seed in seeds])
    speedup = ctx.speedups([cell for design in designs.values() for cell in
                            ((spec, design, "athena", athena),
                             (spec, design))])
    for bandwidth, design in designs.items():
        dist: Dict[str, float] = {
            "none": 0.0, "ocp_only": 0.0, "pf_only": 0.0, "both": 0.0,
        }
        for seed in seeds:
            for (pf_enabled, ocp_enabled), share in run[
                spec, design, "athena", AthenaConfig(seed=seed)
            ].action_distribution().items():
                pf_on = any(pf_enabled)
                if pf_on and ocp_enabled:
                    dist["both"] += share / len(seeds)
                elif pf_on:
                    dist["pf_only"] += share / len(seeds)
                elif ocp_enabled:
                    dist["ocp_only"] += share / len(seeds)
                else:
                    dist["none"] += share / len(seeds)
        dist["athena_speedup"] = speedup[spec, design, "athena", athena]
        dist["naive_speedup"] = speedup[spec, design]
        result.add(f"{bandwidth}GB/s", **dist)
    result.notes = (
        "paper: 47% none + 35% OCP-only at 3.2 GB/s; 61% both at 25.6 GB/s"
    )
    return result


def fig18_ablation(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Figure 18: stateless -> +each feature -> +uncorrelated reward."""
    ctx = ctx or ExperimentContext()
    design = CacheDesign.cd1()
    result = FigureResult(
        "Fig18", "Contribution of state features and reward components"
    )
    feature_chain = [
        ("Stateless Athena (SA)", ()),
        ("SA+PA", ("prefetcher_accuracy",)),
        ("SA+PA+OA", ("prefetcher_accuracy", "ocp_accuracy")),
        ("SA+PA+OA+BW",
         ("prefetcher_accuracy", "ocp_accuracy", "bandwidth_usage")),
        ("SA+PA+OA+BW+CP",
         ("prefetcher_accuracy", "ocp_accuracy", "bandwidth_usage",
          "cache_pollution")),
    ]
    from ..core.config import RewardWeights

    ipc_only_weights = RewardWeights(loads=0.0, mispredicted_branches=0.0)
    chain_configs = []
    for label, features in feature_chain:
        config = AthenaConfig(
            stateless=not features,
            features=features or ("prefetcher_accuracy",),
            reward_weights=ipc_only_weights,
            use_uncorrelated_reward=False,
            # The paper's stateless configuration explores with a uniform,
            # non-decaying epsilon (its stated reason that stateless
            # Athena trails MAB's DUCB, §7.5.2); the stateful variants use
            # the DSE-tuned near-greedy epsilon.
            epsilon=0.1 if not features else AthenaConfig.epsilon,
        )
        chain_configs.append((label, config))
    return _geomean_rows(ctx, result, [
        ("MAB", {"speedup": (design, "mab")}),
        *((label, {"speedup": (design, "athena", config)})
          for label, config in chain_configs),
        ("Athena (full, +uncorrelated reward)",
         {"speedup": (design, "athena", AthenaConfig())}),
    ])


def fig19_prefetcher_only(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Figure 19: Athena managing two L2C prefetchers without an OCP."""
    ctx = ctx or ExperimentContext()
    design = CacheDesign.cd3().with_ocp(None)
    return _speedup_figure(
        ctx,
        "Fig19",
        "Prefetcher-only management (SMS + Pythia, no OCP)",
        design,
        series={
            "SMS+Pythia": (design, "none"),
            "HPAC": (design, "hpac"),
            "MAB": (design, "mab"),
            "Athena": (design, "athena"),
        },
    )


# ---------------------------------------------------------------------------
# Extended results (Appendix B: Figures 20-21)
# ---------------------------------------------------------------------------

def fig20_memory_traffic(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Figure 20: main-memory requests and LLC miss latency (CD1)."""
    ctx = ctx or ExperimentContext()
    design = CacheDesign.cd1()
    workloads = ctx.workload_pool()
    result = FigureResult(
        "Fig20",
        "Normalized main-memory requests (a) and LLC miss latency (b)",
    )
    configs = {
        "POPET": (design.only_ocp(), "none"),
        "Pythia": (design.only_prefetchers(), "none"),
        "Naive": (design, "none"),
        "HPAC": (design, "hpac"),
        "MAB": (design, "mab"),
        "Athena": (design, "athena"),
    }
    baseline = design.without_mechanisms()
    run = ctx.runs([(spec, baseline) for spec in workloads]
                   + _cells(workloads, configs))
    for name, pair in configs.items():
        request_ratios = []
        latency_ratios = []
        for spec in workloads:
            base = run[spec, baseline].stats
            stats = run[(spec, *pair)].stats
            if base.dram_requests:
                request_ratios.append(
                    stats.dram_requests / base.dram_requests
                )
            if base.avg_llc_miss_latency > 0 and stats.llc_misses:
                latency_ratios.append(
                    stats.avg_llc_miss_latency / base.avg_llc_miss_latency
                )
        result.add(
            name,
            memory_requests=geomean(request_ratios),
            llc_miss_latency=geomean(latency_ratios),
        )
    result.notes = (
        "paper: Naive +21.9% requests vs Athena +5.8%; Naive +28.3% "
        "latency vs Athena +1.7%"
    )
    return result


def fig21_unseen_workloads(ctx: Optional[ExperimentContext] = None) -> FigureResult:
    """Figure 21: unseen Google/DPC4-like workloads in CD4.

    The datacenter traces are strongly phased (RPC-ish irregular bursts
    interleaved with streaming and compute), so the figure runs them at
    2.5x the ambient trace length — matching the paper's point that these
    are the *longest* traces in its evaluation and giving each phase a
    learnable number of epochs at reproduction scale.
    """
    from ..workloads.suites import ReproScale

    ctx = ctx or ExperimentContext()
    if ctx.scale.trace_length < 90_000:
        ctx = ExperimentContext(ReproScale(
            "fig21", trace_length=int(ctx.scale.trace_length * 3.5),
            workloads_per_figure=ctx.scale.workloads_per_figure,
            epoch_length=ctx.scale.epoch_length,
        ), engine=ctx.engine)
    design = CacheDesign.cd4()
    result = FigureResult(
        "Fig21", "Speedup on unseen datacenter workloads (CD4)"
    )
    series = {
        "Naive": (design, "none"),
        "TLP": (design, "tlp"),
        "HPAC": (design, "hpac"),
        "MAB": (design, "mab"),
        "Athena": (design, "athena"),
    }
    workloads = list(google_workloads())
    speedup = ctx.speedups(_cells(workloads, series))
    for spec in workloads:
        result.add(spec.name.replace("google.", ""), **{
            name: speedup[(spec, *pair)] for name, pair in series.items()
        })
    result.add("overall", **_geomeans(speedup, workloads, series))
    return result


#: registry used by benchmarks and the report generator.
FIGURES = {
    "Fig1": fig01_motivation_lines,
    "Fig2": fig02_naive_vs_staticbest,
    "Fig3": fig03_offchip_fill_accuracy,
    "Fig4": fig04_prior_policies,
    "Fig7": fig07_cd1,
    "Fig8a": fig08a_category_boxes,
    "Fig8b": fig08b_athena_vs_staticbest,
    "Fig9": fig09_cd2,
    "Fig10": fig10_cd3,
    "Fig11": fig11_cd4,
    "Fig12a": fig12a_l2c_prefetcher_sweep,
    "Fig12b": fig12b_ocp_sweep,
    "Fig12c": fig12c_ocp_latency_sweep,
    "Fig13": fig13_l1d_prefetcher_sweep,
    "Fig14": fig14_bandwidth_sweep,
    "Fig15": fig15_fourcore,
    "Fig16": fig16_eightcore,
    "Fig17": fig17_case_study,
    "Fig18": fig18_ablation,
    "Fig19": fig19_prefetcher_only,
    "Fig20": fig20_memory_traffic,
    "Fig21": fig21_unseen_workloads,
}
