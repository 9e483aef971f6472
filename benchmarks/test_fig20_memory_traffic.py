"""Figure 20 (appendix B.1/B.2): memory requests and LLC miss latency.

Paper shape: Naive inflates main-memory requests (+21.9%) and LLC miss
latency (+28.3%) over the baseline; Athena keeps both overheads small
(+5.8% and +1.7%).
"""

from conftest import check_claims, run_once

from repro.experiments.figures import fig20_memory_traffic


def test_fig20(benchmark, ctx, save_result):
    result = run_once(benchmark, lambda: fig20_memory_traffic(ctx))
    save_result(result)
    check_claims(result)
