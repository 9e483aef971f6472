"""Figure 15: four-core workload mixes (CD1, per-core Athena).

Paper shape: Athena outperforms Naive/HPAC/MAB across all mix categories
with hyperparameters tuned only on single-core workloads; its largest
margin over Naive is in the adverse mixes.
"""

from conftest import check_claims, run_once

from repro.experiments.figures import fig15_fourcore


def test_fig15(benchmark, ctx, save_result):
    result = run_once(benchmark, lambda: fig15_fourcore(ctx))
    save_result(result)
    check_claims(result)
