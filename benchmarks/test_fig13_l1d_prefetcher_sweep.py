"""Figure 13: CD4 with IPCP vs Berti at L1D.

Paper shape: Berti's higher accuracy makes the prefetcher stack itself
perform better than with IPCP; Athena consistently leads for both.
"""

from conftest import check_claims, run_once

from repro.experiments.figures import fig13_l1d_prefetcher_sweep


def test_fig13(benchmark, ctx, save_result):
    result = run_once(benchmark, lambda: fig13_l1d_prefetcher_sweep(ctx))
    save_result(result)
    check_claims(result)
