"""Figure 2: naive combination vs the StaticBest oracle.

Paper shape: Naive degrades on prefetcher-adverse workloads (masking
POPET's standalone gains) while StaticBest is consistent in both
categories and beats Naive overall.
"""

from conftest import check_claims, run_once

from repro.experiments.figures import fig02_naive_vs_staticbest


def test_fig02(benchmark, ctx, save_result):
    result = run_once(benchmark, lambda: fig02_naive_vs_staticbest(ctx))
    save_result(result)
    check_claims(result)
