"""Figure 12(b): CD1 swept over the OCP type (POPET, HMP, TTP).

Paper shape: Athena consistently outperforms the prior policies for every
OCP type.
"""

from conftest import run_once

from repro.experiments.figures import fig12b_ocp_sweep

TOL = 0.025


def test_fig12b(benchmark, ctx, save_result):
    result = run_once(benchmark, lambda: fig12b_ocp_sweep(ctx))
    save_result(result)

    assert [label for label, _ in result.rows] == ["popet", "hmp", "ttp"]
    wins = 0
    for label, row in result.rows:
        # Coordination-policy rivals; Naive is checked separately below
        # because in our shallow-adversity substrate always-on is close
        # to optimal in CD1 (see docs/reproduction.md, Fig 12b).
        best_rival = max(row["HPAC"], row["MAB"])
        if row["Athena"] >= best_rival - TOL:
            wins += 1
        assert row["Athena"] >= row["Naive"] - 0.06, label
        assert row["Athena"] > 0.97, label
    assert wins >= 2
