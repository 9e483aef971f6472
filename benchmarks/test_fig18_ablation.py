"""Figure 18: ablation — state features and the uncorrelated reward.

Paper shape: stateless Athena with an IPC-only reward trails MAB; each
added state feature is non-harmful on average; the full configuration
(four features + composite reward) is the best Athena variant.
"""

from conftest import check_claims, run_once

from repro.experiments.figures import fig18_ablation


def test_fig18(benchmark, ctx, save_result):
    result = run_once(benchmark, lambda: fig18_ablation(ctx))
    save_result(result)
    check_claims(result)
