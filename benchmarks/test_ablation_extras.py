"""Ablation benches beyond the paper (design choices called out in
docs/reproduction.md): epoch-length sensitivity, QVStore plane-count
sensitivity, and composite-reward weight sensitivity.
"""

from conftest import RESULTS_DIR, run_once

from repro.core.config import AthenaConfig, RewardWeights
from repro.experiments.configs import CacheDesign
from repro.experiments.figures import FigureResult


def _save(result):
    table = result.format_table()
    print()
    print(table)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{result.figure_id}.txt").write_text(table + "\n")


def test_epoch_length_sensitivity(benchmark, ctx):
    """Athena should be robust across a 4x epoch-length range (the paper
    fixes 2K instructions via DSE; our scaled default is trace/80)."""
    design = CacheDesign.cd1()
    workloads = ctx.workload_pool(6)
    base_epoch = ctx.scale.epoch_length

    def run():
        result = FigureResult("AblEpoch", "Epoch-length sensitivity (CD1)")
        for factor in (0.5, 1.0, 2.0):
            epoch = max(50, int(base_epoch * factor))
            config = AthenaConfig(epoch_length=epoch)
            # epoch_length in the config is advisory; the simulator's epoch
            # comes from the scale, so run manually at each epoch size.
            from repro.experiments.runner import ExperimentContext
            from repro.workloads.suites import ReproScale
            scale = ReproScale(
                f"epoch{epoch}", ctx.scale.trace_length, 6, epoch
            )
            local = ExperimentContext(scale, ctx.engine)
            result.add(
                f"epoch={epoch}",
                athena=local.geomean_speedup(
                    workloads, design, "athena", config
                ),
            )
        return result

    result = run_once(benchmark, run)
    _save(result)
    speedups = result.series("athena")
    assert max(speedups) - min(speedups) < 0.15  # no cliff


def test_plane_count_sensitivity(benchmark, ctx):
    """Fewer planes lose generalization/resolution; 8 (Table 4) should be
    at least as good as 2 within noise."""
    design = CacheDesign.cd1()
    workloads = ctx.workload_pool(6)

    def run():
        result = FigureResult("AblPlanes", "QVStore plane-count sensitivity")
        for planes in (2, 4, 8):
            config = AthenaConfig(num_planes=planes)
            result.add(
                f"planes={planes}",
                athena=ctx.geomean_speedup(
                    workloads, design, "athena", config
                ),
            )
        return result

    result = run_once(benchmark, run)
    _save(result)
    rows = dict(result.rows)
    assert rows["planes=8"]["athena"] >= rows["planes=2"]["athena"] - 0.05


def test_reward_weight_sensitivity(benchmark, ctx):
    """The cycle term must carry the reward: zeroing it should hurt."""
    design = CacheDesign.cd1()
    workloads = ctx.workload_pool(6)

    def run():
        result = FigureResult("AblReward", "Reward-weight sensitivity")
        for label, weights in (
            ("paper", RewardWeights()),
            ("no_cycle_term", RewardWeights(cycles=0.0)),
            ("cycle_only", RewardWeights(loads=0.0,
                                         mispredicted_branches=0.0)),
        ):
            config = AthenaConfig(reward_weights=weights)
            result.add(
                label,
                athena=ctx.geomean_speedup(
                    workloads, design, "athena", config
                ),
            )
        return result

    result = run_once(benchmark, run)
    _save(result)
    rows = dict(result.rows)
    assert rows["paper"]["athena"] >= rows["no_cycle_term"]["athena"] - 0.02
