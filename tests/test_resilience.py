"""Tests for the fault-tolerant execution layer.

Covers the failure model (:mod:`repro.engine.faults`), the resilient
pool/engine paths (retry, timeout, pool rebuild, degraded inline
execution, partial-batch persistence), store corruption recovery, the
Session's error-status results, and the CLI's resilience flags + exit
code.  Fault injection is fully deterministic — every test that
injects a fault does so through a seeded :class:`FaultPlan`.
"""

import sqlite3

import pytest

from repro.engine import Engine, ResultStore, RunRequest
from repro.engine.faults import (
    ExecutionError,
    ExecutionPolicy,
    FaultPlan,
    InjectedFault,
    RequestFailure,
    format_failures,
)
from repro.engine.pool import SimulationPool
from repro.experiments.configs import CacheDesign
from repro.workloads.suites import find_workload

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def _request(policy="naive", workload="ligra.BFS.0", **overrides):
    defaults = dict(
        spec=find_workload(workload),
        trace_length=1500,
        design=CacheDesign.cd1(),
        policy_name=policy,
        epoch_length=150,
        warmup_fraction=0.35,
    )
    defaults.update(overrides)
    return RunRequest(**defaults)


#: fast retry discipline for tests: no real backoff waits.
FAST = ExecutionPolicy(max_retries=2, backoff_s=0.01, backoff_factor=1.0,
                       jitter_fraction=0.0)


def plan_hitting(mode, keys, miss=(), times=1, hang_s=30.0):
    """A seeded plan faulting every key in ``keys`` and none in ``miss``.

    Victim selection is a pure function of (seed, key), so scanning
    seeds finds one that selects exactly the requested victims —
    deterministically, since the keys are content hashes.
    """
    for seed in range(10_000):
        plan = FaultPlan(rates=((mode, 0.5),), seed=seed, times=times,
                         hang_s=hang_s)
        if all(plan.decide(k, 0) == mode for k in keys) and \
                all(plan.decide(k, 0) is None for k in miss):
            return plan
    raise AssertionError("no seed found")  # pragma: no cover


def all_faults(mode, times=1, hang_s=30.0):
    """A plan faulting *every* key (rate 1.0)."""
    return FaultPlan(rates=((mode, 1.0),), times=times, hang_s=hang_s)


# ---------------------------------------------------------------------------
# the failure model
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_parse_full_spec(self):
        plan = FaultPlan.parse(
            "crash=0.3,hang=0.2,corrupt=0.2,raise=0.1,"
            "seed=7,times=2,hang_s=12.5")
        assert dict(plan.rates) == {"crash": 0.3, "hang": 0.2,
                                    "corrupt": 0.2, "raise": 0.1}
        assert plan.seed == 7
        assert plan.times == 2
        assert plan.hang_s == 12.5

    def test_parse_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            FaultPlan.parse("explode=0.5")

    def test_parse_rejects_bad_rates(self):
        with pytest.raises(ValueError, match="outside"):
            FaultPlan.parse("crash=1.5")
        with pytest.raises(ValueError, match="sum past"):
            FaultPlan.parse("crash=0.7,hang=0.7")
        with pytest.raises(ValueError, match="key=value"):
            FaultPlan.parse("crash")

    def test_decide_is_deterministic(self):
        plan = FaultPlan.parse("raise=0.5,seed=3")
        first = [plan.decide(f"key{i}", 0) for i in range(50)]
        second = [plan.decide(f"key{i}", 0) for i in range(50)]
        assert first == second
        assert any(mode is not None for mode in first)
        assert any(mode is None for mode in first)

    def test_seed_changes_victims(self):
        keys = [f"key{i}" for i in range(100)]
        a = FaultPlan(rates=(("raise", 0.5),), seed=0).victims(keys)
        b = FaultPlan(rates=(("raise", 0.5),), seed=1).victims(keys)
        assert a != b

    def test_times_bounds_faulted_attempts(self):
        plan = all_faults("raise", times=2)
        assert plan.decide("k", 0) == "raise"
        assert plan.decide("k", 1) == "raise"
        assert plan.decide("k", 2) is None

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", "raise=0.5,seed=9")
        plan = FaultPlan.from_env()
        assert plan.seed == 9

    def test_inline_crash_downgrades_to_raise(self):
        plan = all_faults("crash")
        with pytest.raises(InjectedFault, match="inline"):
            plan.pre_execute("k", 0, inline=True)


class TestExecutionPolicy:
    def test_from_env_reads_variables(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
        monkeypatch.setenv("REPRO_TIMEOUT_S", "1.5")
        policy = ExecutionPolicy.from_env()
        assert policy.max_retries == 5
        assert policy.timeout_s == 1.5

    def test_explicit_overrides_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
        policy = ExecutionPolicy.from_env(max_retries=1, timeout_s=0)
        assert policy.max_retries == 1
        assert policy.timeout_s is None  # 0 disables the limit

    def test_backoff_is_deterministic_and_exponential(self):
        policy = ExecutionPolicy(backoff_s=0.1, backoff_factor=2.0,
                                 jitter_fraction=0.25)
        assert policy.backoff("k", 1) == policy.backoff("k", 1)
        assert policy.backoff("k", 3) > policy.backoff("k", 2) \
            > policy.backoff("k", 1)
        base = 0.1 * 2.0  # attempt 2
        assert base <= policy.backoff("k", 2) <= base * 1.25

    def test_jitter_differs_by_key(self):
        policy = ExecutionPolicy(backoff_s=0.1, jitter_fraction=0.5)
        assert policy.backoff("ka", 1) != policy.backoff("kb", 1)


class TestRequestFailure:
    def test_from_exception_captures_type_and_traceback(self):
        try:
            raise RuntimeError("boom")
        except RuntimeError as exc:
            failure = RequestFailure.from_exception("k" * 16, exc,
                                                    attempts=3)
        assert failure.exc_type == "RuntimeError"
        assert "boom" in failure.error
        assert "RuntimeError" in failure.traceback
        assert failure.attempts == 3
        assert "after 3 attempts" in failure.summary()

    def test_format_failures_truncates(self):
        failures = [
            RequestFailure(key=f"key{i:013d}", kind="exception",
                           error="x")
            for i in range(12)
        ]
        text = format_failures(failures, limit=10)
        assert "12 request(s)" in text
        assert "and 2 more" in text


# ---------------------------------------------------------------------------
# store corruption recovery
# ---------------------------------------------------------------------------

class TestStoreCorruptionRecovery:
    def test_truncated_database_file_recreated(self, tmp_path):
        path = tmp_path / "s.sqlite"
        ResultStore(path).put("k", {"a": 1})
        path.write_bytes(path.read_bytes()[:24])  # torn write: header only
        for suffix in ("-wal", "-shm"):  # the crash lost the WAL too
            sidecar = path.with_name(path.name + suffix)
            if sidecar.exists():
                sidecar.unlink()
        store = ResultStore(path)  # header intact: recreate, not refuse
        assert store.get("k") is None
        store.put("k", {"a": 2})
        assert store.get("k") == {"a": 2}

    def test_wal_replay_recovers_torn_main_file(self, tmp_path):
        path = tmp_path / "s.sqlite"
        ResultStore(path).put("k", {"a": 1})
        path.write_bytes(path.read_bytes()[:24])  # main file torn...
        # ...but the WAL sidecar survived: reopening replays it
        assert ResultStore(path).get("k") == {"a": 1}

    def test_empty_file_is_recreatable(self, tmp_path):
        path = tmp_path / "s.sqlite"
        path.touch()
        store = ResultStore(path)
        store.put("k", {"a": 1})
        assert store.get("k") == {"a": 1}

    def test_foreign_file_refused_and_preserved(self, tmp_path):
        path = tmp_path / "precious.txt"
        path.write_text("not a database")
        with pytest.raises(ValueError, match="refusing to overwrite"):
            ResultStore(path)
        assert path.read_text() == "not a database"

    def test_partial_write_row_deleted_as_miss(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        store._conn.execute(
            "INSERT INTO results VALUES ('torn', '{\"a\": 1', 0.0)")
        store._conn.execute(
            "INSERT INTO results VALUES ('nondict', '[1, 2]', 0.0)")
        store._conn.commit()
        assert store.get("torn") is None
        assert store.get("nondict") is None
        assert len(store) == 0  # both evicted

    def test_read_time_database_corruption_is_a_miss(self, tmp_path,
                                                     monkeypatch):
        store = ResultStore(tmp_path / "s.sqlite")
        store.put("k", {"a": 1})

        class BrokenConn:
            def execute(self, *a, **kw):
                raise sqlite3.DatabaseError("database disk image is "
                                            "malformed")

        monkeypatch.setattr(store, "_conn", BrokenConn())
        assert store.get("k") is None  # miss, not a crash

    def test_engine_recomputes_after_corrupt_entry(self, tmp_path):
        request = _request()
        store = ResultStore(tmp_path / "s.sqlite")
        with Engine(store=store) as engine:
            expected = engine.run(request)
            store.put(request.key(), {"schema": -1})
            fresh = Engine(store=ResultStore(tmp_path / "s.sqlite"))
            with fresh:
                recomputed = fresh.run(request)
                assert fresh.counters.executed == 1
            assert recomputed.ipc == expected.ipc


# ---------------------------------------------------------------------------
# serial resilience (inline execution path)
# ---------------------------------------------------------------------------

class TestSerialResilience:
    def test_raise_fault_retried_to_success(self):
        request = _request()
        engine = Engine(resilience=FAST, faults=all_faults("raise"))
        result = engine.run(request)
        assert result.instructions > 0
        assert engine.counters.retries == 1
        assert engine.counters.failures == 0
        assert engine.counters.executed == 1

    def test_corrupt_fault_retried_to_success(self):
        engine = Engine(resilience=FAST, faults=all_faults("corrupt"))
        results = engine.run_many([_request()])
        assert results[0].instructions > 0
        assert engine.counters.retries == 1

    def test_crash_fault_downgrades_inline(self):
        engine = Engine(resilience=FAST, faults=all_faults("crash"))
        result = engine.run(_request())
        assert result.instructions > 0
        assert engine.counters.retries == 1

    def test_exhausted_retries_raise_with_siblings_recorded(self,
                                                            tmp_path):
        good = _request()
        bad = _request(policy="mab")
        plan = plan_hitting("raise", [bad.key()], miss=[good.key()],
                            times=99)
        store = ResultStore(tmp_path / "s.sqlite")
        engine = Engine(store=store, resilience=FAST, faults=plan)
        with pytest.raises(ExecutionError) as excinfo:
            engine.run_many([good, bad])
        failures = excinfo.value.failures
        assert [f.key for f in failures] == [bad.key()]
        assert failures[0].kind == "exception"
        assert failures[0].exc_type == "InjectedFault"
        assert failures[0].attempts == FAST.max_retries + 1
        # the sibling that succeeded is in the store: the rerun is warm
        assert store.get(good.key()) is not None
        assert engine.counters.failures == 1
        assert engine.counters.retries == FAST.max_retries

    def test_fail_fast_cancels_pending(self):
        requests = [_request(), _request(policy="mab"),
                    _request(policy="tlp")]
        policy = ExecutionPolicy(max_retries=0, backoff_s=0.0,
                                 fail_fast=True)
        engine = Engine(resilience=policy,
                        faults=all_faults("raise", times=99))
        with pytest.raises(ExecutionError) as excinfo:
            engine.run_many(requests)
        kinds = [f.kind for f in excinfo.value.failures]
        assert kinds[0] == "exception"
        assert kinds[1:] == ["cancelled", "cancelled"]

    def test_as_completed_yields_failures_in_stream(self):
        good = _request()
        bad = _request(policy="mab")
        plan = plan_hitting("raise", [bad.key()], miss=[good.key()],
                            times=99)
        engine = Engine(resilience=FAST, faults=plan)
        settled = {c.key: c for c in engine.as_completed([good, bad])}
        assert len(settled) == 2
        assert settled[good.key()].ok
        assert settled[good.key()].result.instructions > 0
        assert not settled[bad.key()].ok
        assert settled[bad.key()].result is None
        assert settled[bad.key()].failure.kind == "exception"


# ---------------------------------------------------------------------------
# parallel resilience (pool execution path)
# ---------------------------------------------------------------------------

class TestParallelResilience:
    def test_worker_exception_retried_to_success(self, tmp_path):
        requests = [_request(), _request(policy="mab")]
        with Engine(store=ResultStore(tmp_path / "s.sqlite"), jobs=2,
                    resilience=FAST, faults=all_faults("raise")) as engine:
            results = engine.run_many(requests)
            assert all(r.instructions > 0 for r in results)
            assert engine.counters.retries >= 2
            assert engine.counters.failures == 0

    def test_worker_crash_rebuilds_pool(self, tmp_path):
        requests = [_request(), _request(policy="mab")]
        with Engine(store=ResultStore(tmp_path / "s.sqlite"), jobs=2,
                    resilience=FAST, faults=all_faults("crash")) as engine:
            results = engine.run_many(requests)
            assert all(r.instructions > 0 for r in results)
            assert engine.counters.rebuilds >= 1
            assert engine.counters.retries >= 1
            assert engine.counters.failures == 0

    def test_hang_times_out_and_retries(self, tmp_path):
        policy = ExecutionPolicy(max_retries=2, timeout_s=1.0,
                                 backoff_s=0.01, jitter_fraction=0.0)
        with Engine(store=ResultStore(tmp_path / "s.sqlite"), jobs=2,
                    resilience=policy,
                    faults=all_faults("hang", hang_s=60.0)) as engine:
            results = engine.run_many([_request()])
            assert results[0].instructions > 0
            assert engine.counters.timeouts >= 1
            assert engine.counters.rebuilds >= 1
            assert engine.counters.failures == 0

    def test_corrupt_payload_retried_to_success(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        with Engine(store=store, jobs=2, resilience=FAST,
                    faults=all_faults("corrupt")) as engine:
            results = engine.run_many([_request()])
            assert results[0].instructions > 0
            assert engine.counters.retries == 1
            # the corrupt payload never reached the store
            assert store.get(_request().key()) is not None

    def test_exhausted_retries_persist_siblings(self, tmp_path):
        good = _request()
        bad = _request(policy="mab")
        plan = plan_hitting("raise", [bad.key()], miss=[good.key()],
                            times=99)
        store = ResultStore(tmp_path / "s.sqlite")
        with Engine(store=store, jobs=2, resilience=FAST,
                    faults=plan) as engine:
            with pytest.raises(ExecutionError) as excinfo:
                engine.run_many([good, bad])
            assert [f.key for f in excinfo.value.failures] == [bad.key()]
            assert store.get(good.key()) is not None

    def test_as_completed_streams_failures(self):
        good = _request()
        bad = _request(policy="mab")
        plan = plan_hitting("raise", [bad.key()], miss=[good.key()],
                            times=99)
        with Engine(jobs=2, resilience=FAST, faults=plan) as engine:
            settled = {c.key: c for c in engine.as_completed([good, bad])}
            assert settled[good.key()].ok
            assert not settled[bad.key()].ok
            assert settled[bad.key()].failure.kind == "exception"

    def test_degrades_to_inline_when_rebuilds_exhausted(self, tmp_path):
        # Every attempt crashes the worker; with a rebuild budget of 0
        # the pool degrades to inline execution, where the injected
        # crash downgrades to a raise and retries can succeed.
        policy = ExecutionPolicy(max_retries=3, backoff_s=0.01,
                                 jitter_fraction=0.0, max_rebuilds=0)
        with Engine(jobs=2, resilience=policy,
                    faults=all_faults("crash")) as engine:
            results = engine.run_many([_request()])
            assert results[0].instructions > 0
            assert engine.pool.degraded
            assert engine.counters.rebuilds >= 1

    def test_telemetry_journal_records_failures_and_rebuilds(
            self, tmp_path):
        from repro.obs.journal import summarize_journal, validate_journal

        journal = tmp_path / "run.jsonl"
        with Engine(jobs=2, resilience=FAST, faults=all_faults("crash"),
                    telemetry=journal) as engine:
            engine.run_many([_request()])
        assert validate_journal(journal) == []
        summary = summarize_journal(journal)
        assert summary["failures"]["retried"] >= 1
        assert summary["rebuilds"] >= 1
        assert summary["counters"]["retries"] >= 1
        assert summary["counters"]["rebuilds"] >= 1


class TestPoolSelfHealing:
    def test_rebuild_invalidates_stale_inflight(self):
        pool = SimulationPool(jobs=2)
        try:
            request = _request()
            future = pool.submit(request.key(), [request])
            pool.rebuild()
            # the stale future must not be handed out again
            fresh = pool.submit(request.key(), [request])
            assert fresh is not future
            [payload] = fresh.result(timeout=120)
            assert payload["kind"] == "run"
        finally:
            pool.close()

    def test_submit_heals_broken_executor(self):
        pool = SimulationPool(jobs=2)
        try:
            request = _request()
            # Mark the executor broken, as a dead worker would.
            pool.executor._broken = "a worker died unexpectedly"
            future = pool.submit(request.key(), [request])
            assert pool.rebuilds == 1
            assert future.result(timeout=120)[0]["kind"] == "run"
        finally:
            pool.close()

    def test_degraded_submit_executes_inline(self):
        pool = SimulationPool(jobs=2)
        try:
            pool.degraded = True
            request = _request()
            future = pool.submit(request.key(), [request])
            assert future.done()  # executed synchronously, no workers
            assert future.result()[0]["kind"] == "run"
            assert pool._executor is None
        finally:
            pool.close()


# ---------------------------------------------------------------------------
# session-level error results
# ---------------------------------------------------------------------------

class TestSessionErrorResults:
    def test_as_completed_yields_error_status(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        from repro.api import RunSpec, Session

        good = RunSpec(workload="ligra.BFS.0", policy="naive")
        bad = RunSpec(workload="spec06.mcf_like.0", policy="naive")
        with Session() as probe:
            bad_keys = [r.key() for r in bad.plan(probe.context)]
            good_keys = [r.key() for r in good.plan(probe.context)]
        plan = plan_hitting("raise", bad_keys[:1], miss=good_keys,
                            times=99)
        with Session(Engine(resilience=FAST, faults=plan)) as session:
            results = {r.workload: r for r in
                       session.as_completed([good, bad])}
        assert results["ligra.BFS.0"].ok
        assert results["ligra.BFS.0"].status == "ok"
        failed = results["spec06.mcf_like.0"]
        assert not failed.ok
        assert failed.status == "error"
        assert failed.speedup is None
        assert "exception" in failed.error
        rows = failed.to_rows()
        assert rows[0]["status"] == "error"
        assert "error" in rows[0]

    def test_session_runs_with_the_engine_resilience(self):
        from repro.api import Session

        with Engine(resilience=FAST) as engine:
            assert Session(engine).engine.resilience is FAST


# ---------------------------------------------------------------------------
# CLI flags + exit code
# ---------------------------------------------------------------------------

class TestCliResilience:
    def test_flags_documented_in_help(self, capsys):
        from repro.cli import _build_parser

        parser = _build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["sweep", "--help"])
        text = capsys.readouterr().out
        for flag in ("--max-retries", "--timeout", "--fail-fast",
                     "--faults"):
            assert flag in text
        assert "REPRO_MAX_RETRIES" in text
        assert "REPRO_TIMEOUT_S" in text

    def test_figures_accepts_resilience_flags(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            ["figures", "Fig3", "--max-retries", "1",
             "--timeout", "5", "--fail-fast"])
        assert args.max_retries == 1
        assert args.timeout == 5.0
        assert args.fail_fast

    def test_sweep_with_faults_recovers(self, tmp_path, monkeypatch,
                                        capsys):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        from repro.cli import main

        code = main([
            "sweep", "--workloads", "ligra.BFS.0", "--policies", "none",
            "--store", str(tmp_path / "s.sqlite"),
            "--faults", "raise=1.0", "--max-retries", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "resilience:" in out
        assert "0 failures" in out

    def test_sweep_exhausted_retries_exits_3(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        from repro.cli import EXIT_EXECUTION_FAILURE, main

        code = main([
            "sweep", "--workloads", "ligra.BFS.0", "--policies", "none",
            "--store", str(tmp_path / "s.sqlite"),
            "--faults", "raise=1.0,times=99", "--max-retries", "0",
        ])
        assert code == EXIT_EXECUTION_FAILURE == 3
        err = capsys.readouterr().err
        assert "did not complete" in err

    def test_bad_fault_spec_is_usage_error(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        from repro.cli import main

        code = main([
            "sweep", "--workloads", "ligra.BFS.0", "--policies", "none",
            "--no-store", "--faults", "explode=1.0",
        ])
        assert code == 2
        assert "unknown fault mode" in capsys.readouterr().err
