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
  code computed; the default deletes the other trees' stores there,
  which it never reads); set to ``none`` to disable persistence.
* ``REPRO_JOBS``   — worker processes for simulation misses (default 1).

Each benchmark prints the regenerated figure table and also writes it to
``benchmarks/results/<figure>.txt`` so the output survives pytest's
capture; :func:`check_claims` asserts its paper claims and records them
in ``claims.txt`` there.  The engine's summary prints at session end.
"""

import os
import pathlib

import pytest

from repro.engine import Engine, ResultStore
from repro.engine.store import source_tag
from repro.experiments import claims
from repro.experiments.runner import ExperimentContext

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def prune_stores(results_dir: pathlib.Path, live: pathlib.Path) -> None:
    """Delete every ``store*.sqlite*`` file in ``results_dir`` but the
    live store ``live`` and its ``-wal``/``-shm`` files."""
    keep = {live.name, f"{live.name}-wal", f"{live.name}-shm"}
    for path in results_dir.glob("store*.sqlite*"):
        if path.name not in keep:
            path.unlink(missing_ok=True)


@pytest.fixture(scope="session")
def engine():
    store_setting = os.environ.get("REPRO_STORE")
    if store_setting is None:
        live = RESULTS_DIR / f"store-{source_tag()}.sqlite"
        prune_stores(RESULTS_DIR, live)
        store_setting = str(live)
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


def check_claims(result):
    """Write ``result``'s paper claims to the ledger, then assert them."""
    verdicts = claims.evaluate(result)
    ledger = RESULTS_DIR / "claims.txt"
    previous = ledger.read_text() if ledger.exists() else ""
    ledger.write_text(claims.ledger_text(previous, result.figure_id, verdicts))
    failed = [verdict for verdict in verdicts if not verdict.holds]
    assert not failed, "\n" + "\n".join(claims.ledger_lines(failed))
