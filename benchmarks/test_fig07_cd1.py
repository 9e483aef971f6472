"""Figure 7 + Figure 8(a,b): the headline CD1 evaluation.

Paper shape (Fig 7): Athena outperforms Naive, HPAC and MAB overall;
on adverse workloads Athena beats Naive decisively (paper: +14%) and on
friendly workloads it closely matches Naive.  Fig 8(b): Athena approaches
the StaticBest oracle.
"""

from conftest import check_claims, run_once

from repro.experiments.figures import (
    fig07_cd1,
    fig08a_category_boxes,
    fig08b_athena_vs_staticbest,
)


def test_fig07(benchmark, ctx, save_result):
    result = run_once(benchmark, lambda: fig07_cd1(ctx))
    save_result(result)
    check_claims(result)


def test_fig08a(benchmark, ctx, save_result):
    result = run_once(benchmark, lambda: fig08a_category_boxes(ctx))
    save_result(result)
    # Box invariants: q1 <= mean-ish <= q3, minimum <= q1, q3 <= maximum.
    for label, row in result.rows:
        assert row["minimum"] <= row["q1"] + 1e-9, label
        assert row["q1"] <= row["q3"] + 1e-9, label
        assert row["q3"] <= row["maximum"] + 1e-9, label
    check_claims(result)


def test_fig08b(benchmark, ctx, save_result):
    result = run_once(benchmark, lambda: fig08b_athena_vs_staticbest(ctx))
    save_result(result)
    overall = result.row("Overall")
    # Athena captures most of the oracle's headroom (paper: 10.3% of 11.1%).
    gap = overall["StaticBest"] - overall["Athena"]
    headroom = overall["StaticBest"] - 1.0
    assert gap <= max(0.06, 0.65 * headroom)
