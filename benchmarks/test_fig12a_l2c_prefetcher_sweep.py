"""Figure 12(a): CD1 swept over the L2C prefetcher type.

Paper shape: Athena consistently outperforms Naive, HPAC and MAB for
every prefetcher type (Pythia, SPP+PPF, MLOP, SMS) with no per-prefetcher
retuning.
"""

from conftest import check_claims, run_once

from repro.experiments.figures import fig12a_l2c_prefetcher_sweep


def test_fig12a(benchmark, ctx, save_result):
    result = run_once(benchmark, lambda: fig12a_l2c_prefetcher_sweep(ctx))
    save_result(result)
    assert len(result.rows) == 4
    check_claims(result)
