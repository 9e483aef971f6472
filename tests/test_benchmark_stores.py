"""The paper-shape benchmarks' default store keeps one store per source
tree in ``benchmarks/results/``: opening it deletes the others."""

import importlib.util
import pathlib

BENCH_CONFTEST = (pathlib.Path(__file__).parent.parent / "benchmarks"
                  / "conftest.py")


def _bench_conftest():
    spec = importlib.util.spec_from_file_location("bench_conftest",
                                                  BENCH_CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_prune_keeps_only_the_live_store(tmp_path):
    names = ["store.sqlite", "store-0123456789ab.sqlite",
             "store-0123456789ab.sqlite-wal", "store-0123456789ab.sqlite-shm",
             "store-live00000000.sqlite", "store-live00000000.sqlite-wal",
             "store-live00000000.sqlite-shm", "Fig7.txt", "claims.txt"]
    for name in names:
        (tmp_path / name).write_bytes(b"x")
    _bench_conftest().prune_stores(tmp_path,
                                   tmp_path / "store-live00000000.sqlite")
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "Fig7.txt", "claims.txt", "store-live00000000.sqlite",
        "store-live00000000.sqlite-shm", "store-live00000000.sqlite-wal"]

