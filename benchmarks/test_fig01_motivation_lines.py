"""Figure 1: POPET vs Pythia speedup line graph across the workload pool.

Paper shape: Pythia improves the majority of workloads but degrades a
significant minority (40/100); in the adverse set POPET improves where
Pythia degrades; in the friendly set Pythia's gains exceed POPET's.
"""

import statistics

from conftest import check_claims, run_once

from repro.experiments.figures import fig01_motivation_lines


def test_fig01(benchmark, ctx, save_result):
    result = run_once(benchmark, lambda: fig01_motivation_lines(ctx))
    save_result(result)
    check_claims(result)

    pythia = result.series("Pythia")
    popet = result.series("POPET")
    adverse = [i for i, s in enumerate(pythia) if s < 1.0]

    # A meaningful adverse minority exists (paper: 40%).
    assert 0.15 * len(pythia) <= len(adverse) <= 0.85 * len(pythia)
    # POPET's behaviour is far more uniform across workloads.
    assert statistics.pstdev(popet) < statistics.pstdev(pythia)
    # In the adverse region POPET outperforms Pythia on average.
    adverse_gap = statistics.fmean(
        popet[i] - pythia[i] for i in adverse
    )
    assert adverse_gap > 0.0
