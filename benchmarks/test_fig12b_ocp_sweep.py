"""Figure 12(b): CD1 swept over the OCP type (POPET, HMP, TTP).

Paper shape: Athena consistently outperforms the prior policies for every
OCP type.
"""

from conftest import check_claims, run_once

from repro.experiments.figures import fig12b_ocp_sweep


def test_fig12b(benchmark, ctx, save_result):
    result = run_once(benchmark, lambda: fig12b_ocp_sweep(ctx))
    save_result(result)
    assert [label for label, _ in result.rows] == ["popet", "hmp", "ttp"]
    check_claims(result)
