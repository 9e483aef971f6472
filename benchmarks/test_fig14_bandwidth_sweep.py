"""Figure 14: CD4 swept over main-memory bandwidth (1.6-12.8 GB/s).

Paper shape: Naive's benefit collapses (negative) at low bandwidth and
soars at high bandwidth; Athena wins everywhere, with its largest margin
in the bandwidth-constrained configurations.
"""

from conftest import check_claims, run_once

from repro.experiments.figures import fig14_bandwidth_sweep


def test_fig14(benchmark, ctx, save_result):
    result = run_once(benchmark, lambda: fig14_bandwidth_sweep(ctx))
    save_result(result)
    check_claims(result)
