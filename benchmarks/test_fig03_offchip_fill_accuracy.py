"""Figure 3: inaccurate off-chip prefetch fills — L1D vs L2C.

Paper shape: an off-chip prefetch fill into the L1D (IPCP) is markedly
more likely to be inaccurate than one into the L2C (Pythia); this is the
observation that breaks TLP's generality.
"""

from conftest import check_claims, run_once

from repro.experiments.figures import fig03_offchip_fill_accuracy


def test_fig03(benchmark, ctx, save_result):
    result = run_once(benchmark, lambda: fig03_offchip_fill_accuracy(ctx))
    save_result(result)
    check_claims(result)
