"""Figure 17: case study — Athena's action mix vs memory bandwidth.

Paper shape: on the case-study workload Athena mostly disables both
mechanisms (or keeps only the OCP) at 3.2 GB/s, but flips to enabling
both at 25.6 GB/s — the agent adapts its policy to the system
configuration, not just the workload.
"""

from conftest import check_claims, run_once

from repro.experiments.figures import fig17_case_study


def test_fig17(benchmark, ctx, save_result):
    result = run_once(benchmark, lambda: fig17_case_study(ctx))
    save_result(result)
    check_claims(result)

    low_bw = result.row("3.2GB/s")
    high_bw = result.row("25.6GB/s")
    # Conservative actions (none/ocp_only) shrink with bandwidth.
    conservative_low = low_bw["none"] + low_bw["ocp_only"]
    conservative_high = high_bw["none"] + high_bw["ocp_only"]
    assert conservative_high < conservative_low + 1e-9
    # Shares are a distribution.
    for row in (low_bw, high_bw):
        total = row["none"] + row["ocp_only"] + row["pf_only"] + row["both"]
        assert abs(total - 1.0) < 1e-6
