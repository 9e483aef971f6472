"""Shared fixtures for the figure-regeneration benchmarks.

All benchmarks share one :class:`ExperimentContext` per session, backed by
a :class:`repro.engine.api.Engine` with a *persistent* result store: runs
common to several figures (e.g. the CD1 baselines) are simulated once per
store lifetime, so a second benchmark session replays everything from
disk.  Configuration via environment variables:

* ``REPRO_SCALE``  — tiny/small/medium/full (default small).
* ``REPRO_STORE``  — store path (default
  ``benchmarks/results/store-<12 hex>.sqlite``, one store per source tree
  like the CLI's default, so a checkout never replays rows that older
  code computed); set to ``none`` to disable persistence.
* ``REPRO_JOBS``   — worker processes for simulation misses (default 1).

Each benchmark prints the regenerated figure table and also writes it to
``benchmarks/results/<figure>.txt`` so the output survives pytest's
capture.  The engine's executed/hit summary is printed at session end.
"""

import os
import pathlib

import pytest

from repro.engine import Engine, ResultStore
from repro.engine.store import source_tag
from repro.experiments.runner import ExperimentContext

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def engine():
    store_setting = os.environ.get(
        "REPRO_STORE", str(RESULTS_DIR / f"store-{source_tag()}.sqlite")
    )
    if store_setting.lower() == "none":
        store = None
    else:
        store = ResultStore(store_setting)
    jobs = int(os.environ.get("REPRO_JOBS", "1"))
    engine = Engine(store=store, jobs=jobs)
    yield engine
    print()
    print(engine.counters.summary())
    engine.close()


@pytest.fixture(scope="session")
def ctx(engine):
    return ExperimentContext(engine=engine)


@pytest.fixture(scope="session")
def save_result():
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(result):
        table = result.format_table()
        print()
        print(table)
        path = RESULTS_DIR / f"{result.figure_id}.txt"
        path.write_text(table + "\n")
        return table

    return _save


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
