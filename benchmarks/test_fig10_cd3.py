"""Figure 10: CD3 (POPET + two L2C prefetchers: SMS + Pythia).

Paper shape: with two uncoordinated prefetchers Naive's adverse-set
damage grows; HPAC/MAB only partially recover; Athena (with its 8-action
space) beats all of them overall.
"""

from conftest import check_claims, run_once

from repro.experiments.figures import fig10_cd3


def test_fig10(benchmark, ctx, save_result):
    result = run_once(benchmark, lambda: fig10_cd3(ctx))
    save_result(result)
    check_claims(result)
