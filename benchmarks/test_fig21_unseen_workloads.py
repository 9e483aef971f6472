"""Figure 21 (appendix B.3): unseen Google/DPC4-like workloads in CD4.

Paper shape: on workload categories never used for tuning, Athena still
outperforms the next-best coordination mechanism overall.
"""

from conftest import check_claims, run_once

from repro.experiments.figures import fig21_unseen_workloads


def test_fig21(benchmark, ctx, save_result):
    result = run_once(benchmark, lambda: fig21_unseen_workloads(ctx))
    save_result(result)
    check_claims(result)
    # 12 categories + the overall row.
    assert len(result.rows) == 13
