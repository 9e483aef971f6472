"""Figure 4: prior coordination policies vs StaticBest (CD1).

Paper shape: HPAC and MAB mitigate Naive's adverse-set damage but leave a
gap to StaticBest; in friendly workloads they fall short of Naive (HPAC's
conservatism, MAB's state-blindness).
"""

from conftest import check_claims, run_once

from repro.experiments.figures import fig04_prior_policies


def test_fig04(benchmark, ctx, save_result):
    result = run_once(benchmark, lambda: fig04_prior_policies(ctx))
    save_result(result)
    check_claims(result)
