"""Figure 19: Athena managing two L2C prefetchers *without* an OCP.

Paper shape: Athena generalises to OCP-less systems — it prevents the
adverse-set losses HPAC/MAB leave behind and leads overall, although
without the OCP it can only recover to (not beyond) the baseline on
adverse workloads.
"""

from conftest import check_claims, run_once

from repro.experiments.figures import fig19_prefetcher_only


def test_fig19(benchmark, ctx, save_result):
    result = run_once(benchmark, lambda: fig19_prefetcher_only(ctx))
    save_result(result)
    check_claims(result)
