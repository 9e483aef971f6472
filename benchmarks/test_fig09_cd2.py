"""Figure 9: CD2 (POPET + IPCP at L1D) — the design TLP targets.

Paper shape: TLP helps on adverse workloads by filtering off-chip-bound
L1D prefetches but hurts friendly workloads; Athena beats TLP in both
categories and beats everything overall.
"""

from conftest import check_claims, run_once

from repro.experiments.figures import fig09_cd2


def test_fig09(benchmark, ctx, save_result):
    result = run_once(benchmark, lambda: fig09_cd2(ctx))
    save_result(result)
    check_claims(result)
