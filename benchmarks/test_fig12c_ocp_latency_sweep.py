"""Figure 12(c): CD1 swept over the OCP request issue latency (6/18/30).

Paper shape: POPET's standalone benefit shrinks as the issue latency
grows (paper: -2.5% from 6 to 30 cycles), while Athena degrades far more
gracefully (paper: -0.8%) and beats the prior policies at every latency.
"""

from conftest import check_claims, run_once

from repro.experiments.figures import fig12c_ocp_latency_sweep


def test_fig12c(benchmark, ctx, save_result):
    result = run_once(benchmark, lambda: fig12c_ocp_latency_sweep(ctx))
    save_result(result)
    check_claims(result)
