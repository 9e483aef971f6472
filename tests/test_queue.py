"""Tests for the durable job queue and the lease-based worker service.

Covers the queue's state machine (:mod:`repro.engine.queue`), the
worker drain loop (:mod:`repro.engine.service`), the Engine's queue
route (dispatch → embedded worker → store), the SQLite busy-retry
seam (:mod:`repro.engine.backend`), and the CLI surface
(``repro worker`` / ``repro queue`` / ``exp run --queue`` /
``exp resume``).  The crash tests are real: a worker process is
started with :mod:`subprocess`, SIGKILLed mid-job, and the campaign
must finish without recomputing anything that already landed.
"""

import os
import sqlite3
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.engine import Engine, JobQueue, ResultStore, RunRequest
from repro.engine.backend import execute_with_retry
from repro.engine.faults import (
    ExecutionError,
    ExecutionPolicy,
    FaultPlan,
    RequestFailure,
)
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


def _requests(n=3):
    policies = ("none", "naive", "tlp", "mab", "hpac")
    return [_request(policy=policies[i % len(policies)],
                     trace_length=1500 + 100 * (i // len(policies)))
            for i in range(n)]


def _keyed(requests):
    return [(r.key(), r) for r in requests]


#: fast retry discipline: no real backoff waits.
FAST = ExecutionPolicy(max_retries=2, backoff_s=0.0, backoff_factor=1.0,
                       jitter_fraction=0.0)


# ---------------------------------------------------------------------------
# the queue state machine (cheap fake "requests": any pickleable object)
# ---------------------------------------------------------------------------

class TestDispatch:
    def test_dispatch_enqueues_pending_jobs(self, tmp_path):
        with JobQueue(tmp_path / "q.sqlite") as q:
            report = q.dispatch([("k1", "r1"), ("k2", "r2")])
            assert sorted(report.enqueued) == ["k1", "k2"]
            assert q.counts() == {"pending": 2, "leased": 0,
                                  "done": 0, "failed": 0}
            assert len(q) == 2

    def test_dispatch_is_idempotent(self, tmp_path):
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.dispatch([("k1", "r1")])
            again = q.dispatch([("k1", "r1")])
            assert again.enqueued == []
            assert again.already_queued == ["k1"]
            assert len(q) == 1

    def test_dispatch_counts_a_repeated_key_once(self):
        with JobQueue(":memory:") as q:
            report = q.dispatch([("k1", "r1"), ("k2", "r2"), ("k1", "r1")])
            assert report.enqueued == ["k1", "k2"]
            assert report.already_queued == []
            assert report.summary() == "dispatch: 2 enqueued (2 keys)"
            assert len(q) == 2

    def test_dispatch_counts_a_repeated_stored_key_once(self, tmp_path):
        class FakeStore:
            def __contains__(self, key):
                return key == "warm"

        with JobQueue(tmp_path / "q.sqlite") as q:
            report = q.dispatch([("warm", "r1"), ("warm", "r1")],
                                store=FakeStore())
            assert report.done_from_store == ["warm"]
            assert report.already_done == []
            assert report.total == 1

    def test_dispatch_skips_done_keys(self, tmp_path):
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.dispatch([("k1", "r1")])
            [lease] = q.lease("w", ttl_s=30)
            q.complete(lease.key, "w")
            report = q.dispatch([("k1", "r1"), ("k2", "r2")])
            assert report.already_done == ["k1"]
            assert report.enqueued == ["k2"]

    def test_dispatch_consults_the_store(self, tmp_path):
        class FakeStore:
            def __contains__(self, key):
                return key == "warm"

        with JobQueue(tmp_path / "q.sqlite") as q:
            report = q.dispatch([("warm", "r1"), ("cold", "r2")],
                                store=FakeStore())
            assert report.done_from_store == ["warm"]
            assert report.enqueued == ["cold"]
            assert q.get("warm").state == "done"
            assert q.get("cold").state == "pending"

    def test_dispatch_resets_failed_jobs(self, tmp_path):
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.dispatch([("k1", "r1")], max_retries=0)
            [lease] = q.lease("w", ttl_s=30)
            state = q.fail(lease.key, RequestFailure(
                key="k1", kind="exception", error="boom"))
            assert state == "failed"
            report = q.dispatch([("k1", "r1")])
            assert report.resumed_failed == ["k1"]
            job = q.get("k1")
            assert job.state == "pending"
            assert job.attempts == 0
            assert job.error is None

    def test_report_summary_mentions_every_bucket(self):
        from repro.engine.queue import DispatchReport

        report = DispatchReport(enqueued=["a"], already_done=["b"],
                                already_queued=["c"],
                                resumed_failed=["d"],
                                done_from_store=["e"])
        text = report.summary()
        assert "1 enqueued" in text
        assert "1 done from store" in text
        assert "1 already done" in text
        assert "1 already queued" in text
        assert "1 failed jobs reset" in text
        assert "(5 keys)" in text


class TestLeaseLifecycle:
    def test_lease_claims_and_charges_an_attempt(self, tmp_path):
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.dispatch([("k1", "r1")])
            [lease] = q.lease("w1", ttl_s=30)
            assert lease.key == "k1"
            assert lease.request == "r1"
            assert lease.attempt == 0  # zero-based
            job = q.get("k1")
            assert job.state == "leased"
            assert job.owner == "w1"
            assert job.attempts == 1
            assert job.lease_age_s is not None

    def test_no_two_workers_lease_one_job(self, tmp_path):
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.dispatch([("k1", "r1")])
            assert len(q.lease("w1", ttl_s=30)) == 1
            assert q.lease("w2", ttl_s=30) == []

    def test_lease_respects_limit_and_fifo_order(self, tmp_path):
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.dispatch([("k1", "r1")])
            time.sleep(0.01)
            q.dispatch([("k2", "r2"), ("k3", "r3")])
            leases = q.lease("w", ttl_s=30, limit=2)
            assert [l.key for l in leases] == ["k1", "k2"]

    def test_lease_order_is_dispatch_order(self, tmp_path):
        # one dispatch stamps every row with the same time: the rowid
        # tie-break keeps the lease order deterministic
        keys = [f"k{(i * 37) % 50:02d}" for i in range(50)]
        assert keys != sorted(keys)
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.dispatch([(key, key) for key in keys])
            leased = [lease.key for _ in keys
                      for lease in q.lease("w", ttl_s=30, limit=1)]
            assert leased == keys

    def test_heartbeat_extends_only_own_leases(self, tmp_path):
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.dispatch([("k1", "r1"), ("k2", "r2")])
            [mine] = q.lease("w1", ttl_s=30, limit=1)
            [theirs] = q.lease("w2", ttl_s=30, limit=1)
            before = q.get(mine.key).lease_expires
            time.sleep(0.01)
            extended = q.heartbeat([mine.key, theirs.key], "w1", ttl_s=60)
            assert extended == 1  # w2's lease is not mine to extend
            assert q.get(mine.key).lease_expires > before

    def test_complete_is_unconditional(self, tmp_path):
        # even a reclaimed-and-re-leased job accepts the original
        # worker's completion: same key, same result.
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.dispatch([("k1", "r1")])
            q.lease("w1", ttl_s=0)
            q.reclaim()
            q.lease("w2", ttl_s=30)
            q.complete("k1", "w1")
            assert q.get("k1").state == "done"
            assert q.drained()

    def test_fail_requeues_within_budget_with_backoff(self, tmp_path):
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.dispatch([("k1", "r1")], max_retries=2)
            [lease] = q.lease("w", ttl_s=30)
            failure = RequestFailure(key="k1", kind="exception",
                                     error="boom", attempts=1)
            state = q.fail(lease.key, failure, backoff_s=30.0)
            assert state == "pending"
            job = q.get("k1")
            assert job.state == "pending"
            assert job.error["kind"] == "exception"
            assert job.not_before > time.time() + 20
            # the backoff gates a re-lease until not_before passes
            assert q.lease("w", ttl_s=30) == []

    def test_fail_exhausts_budget_to_failed(self, tmp_path):
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.dispatch([("k1", "r1")], max_retries=0)
            [lease] = q.lease("w", ttl_s=30)
            state = q.fail(lease.key, RequestFailure(
                key="k1", kind="exception", error="boom"))
            assert state == "failed"
            assert q.get("k1").state == "failed"
            assert q.drained()  # failed is settled, not in-flight

    def test_release_refunds_the_attempt(self, tmp_path):
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.dispatch([("k1", "r1")])
            [lease] = q.lease("w", ttl_s=30)
            assert q.get("k1").attempts == 1
            q.release(lease.key)
            job = q.get("k1")
            assert job.state == "pending"
            assert job.attempts == 0  # innocent: no charge


class TestReclaim:
    def test_reclaim_requeues_expired_leases(self, tmp_path):
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.dispatch([("k1", "r1")])
            q.lease("dead-worker", ttl_s=0.0)
            time.sleep(0.01)
            requeued, failed = q.reclaim()
            assert failed == []
            [failure] = requeued
            assert failure.kind == "crash"
            assert "dead-worker" in failure.error
            job = q.get("k1")
            assert job.state == "pending"
            assert job.attempts == 1  # the dead worker paid for its try

    def test_reclaim_fails_jobs_out_of_budget(self, tmp_path):
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.dispatch([("k1", "r1")], max_retries=0)
            q.lease("w", ttl_s=0.0)
            time.sleep(0.01)
            requeued, failed = q.reclaim()
            assert requeued == []
            assert [f.key for f in failed] == ["k1"]
            assert q.get("k1").state == "failed"

    def test_reclaim_leaves_live_leases_alone(self, tmp_path):
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.dispatch([("k1", "r1")])
            q.lease("w", ttl_s=60)
            assert q.reclaim() == ([], [])
            assert q.get("k1").state == "leased"

    def test_reclaim_spares_the_callers_live_leases(self, tmp_path):
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.dispatch([("k1", "r1"), ("k2", "r2")])
            q.lease("w", ttl_s=0.0, limit=2)
            time.sleep(0.01)
            requeued, failed = q.reclaim(live=["k1"])
            assert [f.key for f in requeued] == ["k2"]
            assert failed == []
            assert q.get("k1").state == "leased"

    def test_reset_failed_grants_a_fresh_budget(self, tmp_path):
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.dispatch([("k1", "r1")], max_retries=0)
            q.lease("w", ttl_s=30)
            q.fail("k1", RequestFailure(key="k1", kind="exception",
                                        error="boom"))
            assert q.reset_failed() == ["k1"]
            job = q.get("k1")
            assert job.state == "pending"
            assert job.attempts == 0
            assert job.error is None


class TestIntrospection:
    def test_counts_states_and_histogram(self, tmp_path):
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.dispatch([("k1", "r1"), ("k2", "r2"), ("k3", "r3")])
            q.lease("w", ttl_s=30, limit=1)
            q.complete("k1", "w")
            counts = q.counts()
            assert counts["done"] == 1
            assert counts["pending"] == 2
            assert q.states(["k1", "k2", "missing"]) == {
                "k1": "done", "k2": "pending"}
            assert q.attempt_histogram() == {0: 2, 1: 1}
            assert q.pending() == 2
            assert not q.drained()
            assert "done=1" in repr(q)

    def test_jobs_filtered_by_state(self, tmp_path):
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.dispatch([("k1", "r1"), ("k2", "r2")])
            q.lease("w", ttl_s=30, limit=1)
            assert [j.key for j in q.jobs("leased")] == ["k1"]
            assert len(q.jobs()) == 2
            [active] = q.leases()
            assert active.owner == "w"

    def test_queue_survives_reopen(self, tmp_path):
        path = tmp_path / "q.sqlite"
        with JobQueue(path) as q:
            q.dispatch([("k1", "r1")])
        with JobQueue(path) as q:
            assert q.get("k1").state == "pending"
            [lease] = q.lease("w", ttl_s=30)
            assert lease.request == "r1"

    def test_foreign_file_is_refused(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("not a database\n")
        with pytest.raises(ValueError, match="refusing to overwrite"):
            JobQueue(path)


# ---------------------------------------------------------------------------
# the SQLite busy-retry seam (satellite: store contention hardening)
# ---------------------------------------------------------------------------

class TestBusyRetry:
    class FlakyConn:
        """Raises SQLITE_BUSY a fixed number of times, then succeeds."""

        def __init__(self, failures, message="database is locked"):
            self.failures = failures
            self.message = message
            self.calls = 0

        def execute(self, sql, params=()):
            self.calls += 1
            if self.calls <= self.failures:
                raise sqlite3.OperationalError(self.message)
            return "ok"

    def test_retries_through_transient_busy(self):
        conn = self.FlakyConn(failures=2)
        assert execute_with_retry(conn, "UPDATE x") == "ok"
        assert conn.calls == 3

    def test_gives_up_after_bounded_retries(self):
        conn = self.FlakyConn(failures=100)
        with pytest.raises(sqlite3.OperationalError, match="locked"):
            execute_with_retry(conn, "UPDATE x", retries=2)
        assert conn.calls == 3  # initial try + 2 retries, not unbounded

    def test_non_busy_errors_are_not_retried(self):
        conn = self.FlakyConn(failures=100, message="no such table: x")
        with pytest.raises(sqlite3.OperationalError, match="no such"):
            execute_with_retry(conn, "UPDATE x")
        assert conn.calls == 1

    def test_store_put_retries_on_busy(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "s.sqlite")
        real = store._conn
        flaky = {"left": 2}

        class Wrapper:
            def execute(self, sql, params=()):
                if flaky["left"] > 0:
                    flaky["left"] -= 1
                    raise sqlite3.OperationalError("database is locked")
                return real.execute(sql, params)

            def __getattr__(self, name):
                return getattr(real, name)

        monkeypatch.setattr(store, "_conn", Wrapper())
        store.put("k", {"kind": "run"})
        assert flaky["left"] == 0
        assert store.get("k") == {"kind": "run"}
        store.close()

    def test_two_processes_share_one_queue_file(self, tmp_path):
        # WAL + busy retry in practice: a second connection writes while
        # the first holds the file open.
        path = tmp_path / "q.sqlite"
        q1 = JobQueue(path)
        q2 = JobQueue(path)
        try:
            q1.dispatch([("k1", "r1")])
            [lease] = q2.lease("w2", ttl_s=30)
            q2.complete(lease.key, "w2")
            assert q1.get("k1").state == "done"
        finally:
            q1.close()
            q2.close()


# ---------------------------------------------------------------------------
# the worker drain loop (real simulations at tiny scale)
# ---------------------------------------------------------------------------

class TestQueueWorker:
    def test_worker_drains_queue_into_store(self, tmp_path):
        requests = _requests(3)
        store = ResultStore(tmp_path / "s.sqlite")
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.dispatch(_keyed(requests))
            worker = Engine(store=store, queue=q, resilience=FAST).worker()
            report = worker.run()
            assert report.completed == 3
            assert report.terminal == 0
            assert q.counts()["done"] == 3
            assert q.drained()
            for r in requests:
                assert store.get(r.key()) is not None
        store.close()

    def test_stall_after_heartbeat_keeps_own_leases(self, tmp_path):
        # The worker renews its lease, then stalls past the TTL before
        # it reclaims: the lease it holds is live, not a crash.
        class StallingQueue(JobQueue):
            def heartbeat(self, keys, owner, *, ttl_s=30.0):
                extended = super().heartbeat(keys, owner, ttl_s=ttl_s)
                self._backend.commit(
                    "UPDATE jobs SET lease_expires=? WHERE state='leased'",
                    (time.time() - 1.0,))
                return extended

        request = _request()
        store = ResultStore(tmp_path / "s.sqlite")
        with StallingQueue(tmp_path / "q.sqlite") as q:
            q.dispatch(_keyed([request]), max_retries=0)
            worker = Engine(store=store, queue=q,
                            resilience=ExecutionPolicy(max_retries=0),
                            lease_ttl_s=0.05).worker()
            worker.heartbeat_s = 0.0
            settlements = worker.settlements()
            assert next(settlements) is None  # leased, heartbeat due
            kind, key, _ = next(settlements)
            assert (kind, key) == ("ok", request.key())
            assert list(settlements) == []
            assert worker.report.reclaimed == 0
            assert q.get(request.key()).state == "done"
        store.close()

    def test_default_heartbeat_renews_well_within_the_ttl(self, tmp_path):
        # a period as long as the TTL lets a sibling worker reclaim a
        # live lease between two heartbeats
        with JobQueue(tmp_path / "q.sqlite") as q:
            worker = Engine(queue=q, lease_ttl_s=0.05).worker()
            assert worker.heartbeat_s == pytest.approx(0.05 / 3)

    def test_worker_resumes_from_store_without_executing(self, tmp_path):
        # the crash window: result stored, done mark missing.
        request = _request()
        store = ResultStore(tmp_path / "s.sqlite")
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.dispatch(_keyed([request]))

            engine = Engine(store=store, queue=q, resilience=FAST)
            worker = engine.worker()
            # simulate the dead worker's store write landing first
            store.put(request.key(), {"kind": "run", "ipc": 1.0,
                                      "stats": {}, "epochs": []})
            report = worker.run()
            assert engine.counters.executed == 0
            assert report.resumed == 1
            assert report.completed == 0
            assert q.get(request.key()).state == "done"
        store.close()

    def test_faulted_attempt_is_retried_through_the_queue(self, tmp_path):
        request = _request()
        faults = FaultPlan(rates=(("raise", 1.0),), times=1)
        store = ResultStore(tmp_path / "s.sqlite")
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.dispatch(_keyed([request]), max_retries=2)
            worker = Engine(store=store, queue=q, resilience=FAST,
                            faults=faults).worker()
            report = worker.run()
            # attempt 0 raised (injected), attempt 1 succeeded: the
            # retry went through queue.fail → pending → re-lease.
            assert report.retried == 1
            assert report.completed == 1
            job = q.get(request.key())
            assert job.state == "done"
            assert job.attempts == 2
        store.close()

    def test_budget_exhaustion_marks_failed_with_error(self, tmp_path):
        request = _request()
        faults = FaultPlan(rates=(("raise", 1.0),), times=99)
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.dispatch(_keyed([request]), max_retries=1)
            worker = Engine(queue=q, resilience=FAST,
                            faults=faults).worker()
            report = worker.run()
            assert report.terminal == 1
            assert report.completed == 0
            job = q.get(request.key())
            assert job.state == "failed"
            assert job.error["kind"] == "exception"
            assert job.attempts == 2  # 1 + max_retries

    def test_watch_keys_stops_at_settled_subset(self, tmp_path):
        mine, theirs = _requests(2)
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.dispatch(_keyed([mine, theirs]))
            # someone else already finished "theirs"... no: watch only
            # "mine" — the worker must exit once mine settles even
            # though other jobs may still be pending at that instant.
            worker = Engine(queue=q, resilience=FAST).worker()
            report = worker.run(watch_keys=[mine.key()])
            assert q.get(mine.key()).state == "done"
            assert report.completed >= 1

    def test_idle_wait_follows_the_retry_backoff(self, tmp_path):
        # a 0.05 s backoff must not wait out a 5 s poll period
        request = _request()
        policy = ExecutionPolicy(max_retries=1, backoff_s=0.05,
                                 jitter_fraction=0.0)
        faults = FaultPlan(rates=(("raise", 1.0),), times=1)
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.dispatch(_keyed([request]), max_retries=1)
            worker = Engine(queue=q, resilience=policy,
                            faults=faults).worker()
            worker.poll_s = 5.0
            start = time.monotonic()
            report = worker.run()
            assert time.monotonic() - start < 4.0
            assert report.retried == 1
            assert report.completed == 1

    def test_max_idle_bounds_an_empty_queue_wait(self, tmp_path):
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.dispatch([("k1", "r1")])
            q.lease("other-worker", ttl_s=120)  # nothing leasable left
            worker = Engine(queue=q, resilience=FAST).worker()
            worker.poll_s = 0.01
            start = time.monotonic()
            report = worker.run(max_idle_s=0.05)
            assert time.monotonic() - start < 5.0
            assert report.completed == 0


# ---------------------------------------------------------------------------
# the Engine queue route and crash-resumable campaigns
# ---------------------------------------------------------------------------

class TestEngineQueueRoute:
    def test_cold_then_warm_run_many(self, tmp_path):
        requests = _requests(3)
        qpath = tmp_path / "q.sqlite"
        spath = tmp_path / "s.sqlite"
        with Engine(store=ResultStore(spath), queue=qpath,
                    resilience=FAST) as engine:
            results = engine.run_many(requests)
            assert len(results) == 3
            assert engine.counters.executed == 3
        with JobQueue(qpath) as q:
            assert q.counts()["done"] == 3
        # a second campaign over the same queue+store recomputes nothing
        with Engine(store=ResultStore(spath), queue=qpath,
                    resilience=FAST) as engine:
            engine.run_many(requests)
            assert engine.counters.executed == 0
            assert engine.counters.store_hits == 3

    def test_single_run_routes_through_queue(self, tmp_path):
        request = _request()
        with Engine(store=ResultStore(tmp_path / "s.sqlite"),
                    queue=tmp_path / "q.sqlite",
                    resilience=FAST) as engine:
            result = engine.run(request)
            assert result.ipc > 0
        with JobQueue(tmp_path / "q.sqlite") as q:
            assert q.get(request.key()).state == "done"

    def test_campaign_resumes_after_partial_drain(self, tmp_path):
        # half the batch is already done (by a previous life of the
        # campaign); the rerun executes only the other half.
        requests = _requests(4)
        qpath, spath = tmp_path / "q.sqlite", tmp_path / "s.sqlite"
        store = ResultStore(spath)
        with JobQueue(qpath) as q:
            q.dispatch(_keyed(requests))
            Engine(store=store, queue=q, resilience=FAST).worker().run(
                watch_keys=[r.key() for r in requests[:2]])
            done_before = q.counts()["done"]
            assert done_before >= 2
        store.close()
        with Engine(store=ResultStore(spath), queue=qpath,
                    resilience=FAST) as engine:
            engine.run_many(requests)
            assert engine.counters.executed == 4 - done_before
        with JobQueue(qpath) as q:
            assert q.counts()["done"] == 4
            # nothing was executed twice
            assert all(j.attempts <= 1 for j in q.jobs())

    def test_terminal_queue_failure_raises_execution_error(self, tmp_path):
        request = _request()
        faults = FaultPlan(rates=(("raise", 1.0),), times=99)
        policy = ExecutionPolicy(max_retries=0, backoff_s=0.0,
                                 jitter_fraction=0.0)
        with Engine(store=ResultStore(tmp_path / "s.sqlite"),
                    queue=tmp_path / "q.sqlite",
                    resilience=policy, faults=faults) as engine:
            with pytest.raises(ExecutionError) as info:
                engine.run_many([request])
            [failure] = info.value.failures
            assert failure.key == request.key()
            assert failure.kind == "exception"
        with JobQueue(tmp_path / "q.sqlite") as q:
            assert q.get(request.key()).state == "failed"

    def test_fail_fast_cancels_pending_jobs(self, tmp_path):
        policy = ExecutionPolicy(max_retries=0, backoff_s=0.0,
                                 fail_fast=True)
        faults = FaultPlan(rates=(("raise", 1.0),), times=99)
        with Engine(queue=tmp_path / "q.sqlite", resilience=policy,
                    faults=faults) as engine:
            with pytest.raises(ExecutionError) as info:
                engine.run_many(_requests(3))
        kinds = [f.kind for f in info.value.failures]
        assert kinds == ["exception", "cancelled", "cancelled"]

    def test_progress_reports_settled_of_total(self, tmp_path):
        seen = []
        with Engine(queue=tmp_path / "q.sqlite",
                    resilience=FAST) as engine:
            engine.run_many(
                _requests(2),
                progress=lambda done, total, key: seen.append(
                    (done, total)))
        assert seen == [(1, 2), (2, 2)]

    def test_as_completed_streams_through_the_queue(self, tmp_path):
        requests = _requests(2)
        with Engine(store=ResultStore(tmp_path / "s.sqlite"),
                    queue=tmp_path / "q.sqlite",
                    resilience=FAST) as engine:
            engine.run(requests[0])
            settled = [(c.key, c.cached)
                       for c in engine.as_completed(requests)]
        assert settled == [(requests[0].key(), True),
                           (requests[1].key(), False)]
        with JobQueue(tmp_path / "q.sqlite") as q:
            assert q.counts()["done"] == 2

    def test_parallel_engine_shares_pool_with_queue_worker(self, tmp_path):
        requests = _requests(3)
        with Engine(store=ResultStore(tmp_path / "s.sqlite"),
                    queue=tmp_path / "q.sqlite", jobs=2,
                    resilience=FAST) as engine:
            results = engine.run_many(requests)
            assert len(results) == 3
            assert engine.counters.executed == 3
        with JobQueue(tmp_path / "q.sqlite") as q:
            assert q.counts()["done"] == 3

    def test_queueless_journal_has_no_queue_events(self, tmp_path):
        from repro.obs import journal as obs_journal

        jpath = tmp_path / "run.jsonl"
        with Engine(telemetry=jpath, resilience=FAST) as engine:
            engine.run_many(_requests(2))
        events = [e for _, e in obs_journal.read_journal(jpath)]
        types = {e["type"] for e in events}
        assert not types & {"dispatch", "lease", "reclaim"}
        [summary] = [e for e in events if e["type"] == "summary"]
        assert not [name for kind in summary["metrics"].values()
                    for name in kind if name.startswith("queue_")]

    def test_queue_dispatch_journal_event(self, tmp_path):
        from repro.obs import journal as obs_journal

        jpath = tmp_path / "run.jsonl"
        with Engine(store=ResultStore(tmp_path / "s.sqlite"),
                    queue=tmp_path / "q.sqlite", telemetry=jpath,
                    resilience=FAST) as engine:
            engine.run_many(_requests(2))
        events = [e for _, e in obs_journal.read_journal(jpath)]
        dispatches = [e for e in events if e["type"] == "dispatch"]
        assert dispatches and dispatches[0]["enqueued"] == 2
        assert any(e["type"] == "lease" for e in events)
        summary = obs_journal.summarize_journal(jpath)
        assert summary["queue"]["dispatched"] == 2
        assert summary["queue"]["leases"] >= 1


# ---------------------------------------------------------------------------
# kill -9: the headline robustness scenario
# ---------------------------------------------------------------------------

def _spawn_worker(queue_path, store_path, *, lease_ttl, env_extra=None,
                  max_idle=None):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra or {})
    argv = [sys.executable, "-m", "repro", "worker",
            "--queue", str(queue_path), "--store", str(store_path),
            "--lease-ttl", str(lease_ttl)]
    if max_idle is not None:
        argv += ["--max-idle", str(max_idle)]
    return subprocess.Popen(argv, env=env,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)


class TestSigkillRecovery:
    def test_killed_worker_loses_lease_and_sibling_finishes(self, tmp_path):
        requests = _requests(3)
        qpath, spath = tmp_path / "q.sqlite", tmp_path / "s.sqlite"
        with JobQueue(qpath) as q:
            q.dispatch(_keyed(requests), max_retries=2)
        total = len(requests)

        # worker A hangs forever on its first job (injected), then dies.
        proc = _spawn_worker(
            qpath, spath, lease_ttl=1.0,
            env_extra={"REPRO_FAULTS": "hang=1.0,times=1,hang_s=600"})
        try:
            deadline = time.time() + 60
            with JobQueue(qpath) as q:
                while time.time() < deadline:
                    if q.counts()["leased"] >= 1:
                        break
                    time.sleep(0.05)
                else:  # pragma: no cover - diagnostic
                    pytest.fail("worker A never leased a job")
                [active] = q.leases()
                victim = active.key
        finally:
            proc.kill()
            proc.wait(timeout=30)

        with JobQueue(qpath) as q:
            # the lease outlives its owner until the TTL runs out...
            assert q.get(victim).state == "leased"
            expires = q.get(victim).lease_expires
            time.sleep(max(0.0, expires - time.time()) + 0.1)
            # ...then any process can reclaim it.
            requeued, failed = q.reclaim()
            assert failed == []
            [failure] = requeued
            assert failure.key == victim
            assert failure.kind == "crash"
            assert q.get(victim).state == "pending"
            assert q.get(victim).attempts == 1  # A paid for its try

            # worker B (no faults) finishes the campaign.
            store = ResultStore(spath)
            report = Engine(store=store, queue=q, resilience=FAST,
                            lease_ttl_s=30.0).worker().run()
            counts = q.counts()
            assert counts["done"] == total
            assert counts["failed"] == 0
            # done-key count unchanged: every key done exactly once,
            # and the victim's record shows both attempts.
            assert len(q.jobs("done")) == total
            assert q.get(victim).attempts == 2
            assert report.completed + report.resumed >= 1
            for r in requests:
                assert store.get(r.key()) is not None
            store.close()

    def test_real_worker_process_drains_clean_queue(self, tmp_path):
        requests = _requests(2)
        qpath, spath = tmp_path / "q.sqlite", tmp_path / "s.sqlite"
        with JobQueue(qpath) as q:
            q.dispatch(_keyed(requests))
        proc = _spawn_worker(qpath, spath, lease_ttl=30.0, max_idle=5)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
        assert b"completed" in out
        with JobQueue(qpath) as q:
            assert q.counts()["done"] == 2


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

SPEC = """
name = "queue-cli"
scale = "tiny"

[[sweeps]]
workloads = "pool:2"
designs = ["cd1"]
policies = ["none", "naive"]
"""


class TestQueueCli:
    @pytest.fixture()
    def spec_path(self, tmp_path):
        path = tmp_path / "exp.toml"
        path.write_text(SPEC)
        return path

    def test_dispatch_then_status_then_worker_flow(self, capsys, tmp_path,
                                                   spec_path):
        qpath = tmp_path / "q.sqlite"
        spath = tmp_path / "s.sqlite"
        assert main(["queue", "dispatch", str(spec_path),
                     "--queue", str(qpath), "--store", str(spath)]) == 0
        out = capsys.readouterr().out
        assert "enqueued" in out
        assert "drain with: repro worker" in out

        assert main(["queue", "status", str(qpath)]) == 0
        out = capsys.readouterr().out
        assert "pending=" in out
        assert "attempts histogram:" in out

        assert main(["worker", "--queue", str(qpath),
                     "--store", str(spath)]) == 0
        out = capsys.readouterr().out
        assert "completed" in out

        assert main(["queue", "status", str(qpath)]) == 0
        out = capsys.readouterr().out
        assert "pending=0" in out
        assert "failed=0" in out

    def test_exp_run_with_queue_then_warm_resume(self, capsys, tmp_path,
                                                 spec_path):
        qpath = tmp_path / "q.sqlite"
        spath = tmp_path / "s.sqlite"
        assert main(["exp", "run", str(spec_path), "--queue", str(qpath),
                     "--store", str(spath)]) == 0
        out = capsys.readouterr().out
        assert "simulations executed" in out

        assert main(["exp", "resume", str(spec_path), "--queue",
                     str(qpath), "--store", str(spath)]) == 0
        out = capsys.readouterr().out
        assert "0 simulations executed" in out

    def test_exp_resume_requires_queue(self, capsys, spec_path):
        assert main(["exp", "resume", str(spec_path)]) == 2
        assert "needs --queue" in capsys.readouterr().err

    def test_worker_requires_queue(self, capsys):
        assert main(["worker"]) == 2
        assert "needs --queue" in capsys.readouterr().err

    def test_worker_rejects_a_malformed_fault_plan(self, capsys, tmp_path):
        assert main(["worker", "--queue", str(tmp_path / "q.sqlite"),
                     "--no-store", "--faults", "bogus=1"]) == 2
        assert "unknown fault mode" in capsys.readouterr().err

    def test_queue_status_missing_file(self, capsys, tmp_path):
        assert main(["queue", "status", str(tmp_path / "no.sqlite")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_worker_exits_3_on_failed_jobs(self, capsys, tmp_path):
        request = _request()
        qpath = tmp_path / "q.sqlite"
        with JobQueue(qpath) as q:
            q.dispatch(_keyed([request]), max_retries=0)
        assert main(["worker", "--queue", str(qpath), "--no-store",
                     "--max-retries", "0",
                     "--faults", "raise=1.0,times=99"]) == 3
        err = capsys.readouterr().err
        assert "failed" in err
        with JobQueue(qpath) as q:
            assert q.counts()["failed"] == 1

    def test_status_shows_failed_job_error(self, capsys, tmp_path):
        with JobQueue(tmp_path / "q.sqlite") as q:
            q.dispatch([("k" * 16, "r1")], max_retries=0)
            q.lease("w", ttl_s=30)
            q.fail("k" * 16, RequestFailure(key="k" * 16,
                                            kind="exception",
                                            error="boom"))
        assert main(["queue", "status", str(tmp_path / "q.sqlite")]) == 0
        out = capsys.readouterr().out
        assert "failed jobs:" in out
        assert "exception: boom" in out

    def test_obs_summary_merges_worker_journals(self, capsys, tmp_path,
                                                spec_path):
        qpath = tmp_path / "q.sqlite"
        spath = tmp_path / "s.sqlite"
        j1, j2 = tmp_path / "j1.jsonl", tmp_path / "j2.jsonl"
        assert main(["queue", "dispatch", str(spec_path),
                     "--queue", str(qpath), "--store", str(spath),
                     "--telemetry", str(j1)]) == 0
        assert main(["worker", "--queue", str(qpath), "--store",
                     str(spath), "--telemetry", str(j2)]) == 0
        capsys.readouterr()
        assert main(["obs", "summary", str(j1), str(j2)]) == 0
        out = capsys.readouterr().out
        assert "2 journals:" in out
        assert "queue:" in out and "dispatched" in out

    def test_obs_summary_single_journal_unchanged(self, capsys, tmp_path):
        jpath = tmp_path / "j.jsonl"
        with Engine(telemetry=jpath, resilience=FAST) as engine:
            engine.run(_request())
        capsys.readouterr()
        assert main(["obs", "summary", str(jpath)]) == 0
        out = capsys.readouterr().out
        assert "journal:" in out
        assert "1 executed" in out

    def test_obs_summary_missing_one_of_many(self, capsys, tmp_path):
        jpath = tmp_path / "j.jsonl"
        jpath.write_text("")
        assert main(["obs", "summary", str(jpath),
                     str(tmp_path / "ghost.jsonl")]) == 2
        assert "not found" in capsys.readouterr().err
