"""Figure 11: CD4 (POPET + IPCP at L1D + Pythia at L2C).

Paper shape: the worst Naive degradation of all designs on the adverse
set; TLP cannot throttle the L2C prefetcher and underperforms; Athena
coordinates both levels and wins overall.
"""

from conftest import check_claims, run_once

from repro.experiments.figures import fig11_cd4


def test_fig11(benchmark, ctx, save_result):
    result = run_once(benchmark, lambda: fig11_cd4(ctx))
    save_result(result)
    check_claims(result)
