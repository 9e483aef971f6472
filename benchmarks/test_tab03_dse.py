"""Table 3: automated design-space exploration on the tuning workloads.

Paper shape: greedy forward selection keeps a small feature set headed by
prefetcher/OCP accuracy; the tuned configuration clearly improves the
tuning-set geomean over baseline.
"""

from conftest import RESULTS_DIR, check_claims, run_once

from repro.experiments.dse import run_dse
from repro.experiments.figures import FigureResult


def test_tab03(benchmark, ctx):
    result = run_once(
        benchmark,
        lambda: run_dse(ctx, num_tuning_workloads=5, max_features=4),
    )
    table = result.format_table()
    print()
    print(table)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "Tab3.txt").write_text(table + "\n")

    assert 1 <= len(result.selected_features) <= 4
    # Every selected feature must be one of the paper's seven candidates.
    from repro.sim.stats import CANDIDATE_FEATURES
    assert set(result.selected_features) <= set(CANDIDATE_FEATURES)
    tuned = FigureResult("Tab3", "DSE-tuned configuration")
    tuned.add("tuning set", geomean=result.best_score)
    check_claims(tuned)
    # Forward selection never accepts a feature that lowers the score.
    scores = [score for _, score in result.feature_trace]
    assert all(b >= a for a, b in zip(scores, scores[1:]))
