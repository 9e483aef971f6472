"""Figure 16: eight-core workload mixes (CD1).

Paper shape: the four-core conclusions hold at eight cores — Athena leads
overall without any multi-core retuning.
"""

from conftest import check_claims, run_once

from repro.experiments.figures import fig16_eightcore


def test_fig16(benchmark, ctx, save_result):
    result = run_once(benchmark, lambda: fig16_eightcore(ctx))
    save_result(result)
    check_claims(result)
