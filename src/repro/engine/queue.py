"""SQLite-backed job queue: every engine miss is one job here.

A job is one engine request — a :class:`~repro.engine.jobs.RunRequest`
or :class:`~repro.engine.jobs.MixRequest` — identified by the same
content hash the memo table, the result store, and the trace cache
already use.  Every miss the engine executes is a job: in a fresh
``:memory:`` queue per batch by default, or in a durable file when the
engine was given ``queue=PATH``, which makes a killed campaign
resumable across OS processes.

The shared identity is what makes the queue safe to operate sloppily:
dispatching the same spec twice, two workers racing to complete one
key, or a crashed worker's job being re-executed after its result
already landed are all benign, because identical keys imply identical
results.

Job lifecycle (the DIRAC/fuzzbench pilot-and-lease shape)::

        dispatch            lease                 complete
    ──────────────► pending ─────► leased ──────────────────► done
                      ▲              │ lease expires / failure
                      │              ▼
                      └───── attempts ≤ budget ──► else ──► failed

* ``dispatch`` lowers keyed requests into rows exactly once — keys that
  are already queued, leased, or done are no-ops; keys whose result is
  already in the ResultStore are recorded as done without ever being
  leased; previously ``failed`` keys are reset so a re-dispatch retries
  them with a fresh budget.
* ``lease`` hands a batch of pending jobs to one worker under a TTL,
  atomically (``BEGIN IMMEDIATE``): no two workers can lease one job.
  Jobs lease oldest dispatch first, in dispatch order within one
  dispatch.  A job dispatched into a lockstep group (requests that
  differ only in the agent seed, see
  :func:`~repro.engine.jobs.lockstep_groups`) brings every pending job
  of its group along, and the worker runs them as one simulation.
  Leasing charges the attempt budget *up front*, so a worker SIGKILLed
  mid-job has already paid for its attempt.
* ``heartbeat`` extends the TTL while a long simulation runs.
* ``reclaim`` requeues jobs whose lease expired (worker killed, machine
  rebooted) — or fails them once the attempt budget (the
  :class:`~repro.engine.faults.ExecutionPolicy` ``max_retries``) is
  exhausted, recording a synthetic ``crash``
  :class:`~repro.engine.faults.RequestFailure`.

Attempt accounting: ``attempts`` counts leases taken; a job may be
attempted ``max_retries + 1`` times before it is failed.  ``release``
refunds an attempt for jobs that were casualties of *another* job's
crash or timeout (innocent pool siblings), or of a worker that stopped
draining early: being collateral damage does not charge your budget.
"""

from __future__ import annotations

import json
import pathlib
import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .backend import SQLiteBackend
from .faults import RequestFailure

PathLike = Union[str, pathlib.Path]

#: valid job states, in lifecycle order.
JOB_STATES = ("pending", "leased", "done", "failed")


@dataclass(frozen=True)
class JobRecord:
    """One row of the queue, decoded."""

    key: str
    kind: str
    state: str
    attempts: int
    max_retries: int
    owner: Optional[str]
    lease_expires: Optional[float]
    not_before: float
    enqueued: float
    updated: float
    error: Optional[dict]

    @property
    def lease_age_s(self) -> Optional[float]:
        """Seconds since this lease was (last) granted, if leased."""
        if self.state != "leased":
            return None
        return max(0.0, time.time() - self.updated)


@dataclass(frozen=True)
class Lease:
    """A job handed to a worker: the request plus attempt bookkeeping.

    ``attempt`` is zero-based (first try is attempt 0) to match the
    ``attempts=`` argument of :func:`repro.engine.pool._execute_job`
    and the fault injector's per-attempt ``times`` bound.  ``group`` is
    the lockstep group's leader key, or None for a job of its own.
    """

    key: str
    request: object
    attempt: int
    max_retries: int
    group: Optional[str] = None


@dataclass
class DispatchReport:
    """What one ``dispatch`` call did, key by key."""

    enqueued: List[str] = field(default_factory=list)
    already_done: List[str] = field(default_factory=list)
    already_queued: List[str] = field(default_factory=list)
    resumed_failed: List[str] = field(default_factory=list)
    done_from_store: List[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return (len(self.enqueued) + len(self.already_done)
                + len(self.already_queued) + len(self.resumed_failed)
                + len(self.done_from_store))

    def summary(self) -> str:
        parts = [f"{len(self.enqueued)} enqueued"]
        if self.done_from_store:
            parts.append(f"{len(self.done_from_store)} done from store")
        if self.already_done:
            parts.append(f"{len(self.already_done)} already done")
        if self.already_queued:
            parts.append(f"{len(self.already_queued)} already queued")
        if self.resumed_failed:
            parts.append(f"{len(self.resumed_failed)} failed jobs reset")
        return f"dispatch: {', '.join(parts)} ({self.total} keys)"


class JobQueue:
    """Durable key → job-lifecycle table shared by dispatcher and workers.

    Many OS processes open the same queue file concurrently; every state
    transition is a single transaction on the shared
    :class:`~repro.engine.backend.SQLiteBackend`, with lease grants and
    reclaims under ``BEGIN IMMEDIATE`` so they are atomic across
    processes.
    """

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS jobs (
            key           TEXT PRIMARY KEY,
            request       BLOB NOT NULL,
            kind          TEXT NOT NULL,
            state         TEXT NOT NULL,
            attempts      INTEGER NOT NULL DEFAULT 0,
            max_retries   INTEGER NOT NULL DEFAULT 2,
            owner         TEXT,
            lease_expires REAL,
            not_before    REAL NOT NULL DEFAULT 0,
            enqueued      REAL NOT NULL,
            updated       REAL NOT NULL,
            error         TEXT
        );
        CREATE INDEX IF NOT EXISTS jobs_by_state
            ON jobs (state, not_before);
        CREATE TABLE IF NOT EXISTS job_groups (
            key   TEXT PRIMARY KEY,
            grp   TEXT NOT NULL
        );
        CREATE INDEX IF NOT EXISTS job_groups_by_grp
            ON job_groups (grp);
    """

    def __init__(self, path: PathLike, *,
                 busy_timeout_s: float = 30.0) -> None:
        self.path = pathlib.Path(path)
        self._backend = SQLiteBackend(self.path, schema=self._SCHEMA,
                                      busy_timeout_s=busy_timeout_s)

    # -- dispatch ----------------------------------------------------------

    def dispatch(self, keyed_requests: Iterable[Tuple[str, object]], *,
                 store=None, max_retries: int = 2,
                 groups: Optional[Dict[str, str]] = None) -> DispatchReport:
        """Lower keyed requests into the queue, idempotently; each
        distinct key once.

        ``store`` (a ResultStore) lets the dispatcher skip work that a
        previous campaign already finished: keys with a stored result
        are recorded ``done`` without ever being leased.  ``groups``
        maps member keys to their lockstep group's leader key; the
        keys this dispatch makes pending join that group.
        """
        report = DispatchReport()
        now = time.time()
        # A key repeated within one call (a baseline every cell of a
        # workload shares) is one job, reported once.
        keyed = dict(keyed_requests)
        with self._backend.transaction() as conn:
            for key, request in keyed.items():
                row = conn.execute(
                    "SELECT state FROM jobs WHERE key = ?", (key,)
                ).fetchone()
                if row is not None:
                    state = row[0]
                    if state == "done":
                        report.already_done.append(key)
                    elif state == "failed":
                        conn.execute(
                            "UPDATE jobs SET state='pending', attempts=0, "
                            "max_retries=?, owner=NULL, lease_expires=NULL, "
                            "not_before=0, error=NULL, updated=? "
                            "WHERE key=?",
                            (max_retries, now, key),
                        )
                        report.resumed_failed.append(key)
                    else:  # pending or leased: someone is on it
                        report.already_queued.append(key)
                    continue
                state = "pending"
                if store is not None and key in store:
                    state = "done"
                conn.execute(
                    "INSERT INTO jobs (key, request, kind, state, attempts,"
                    " max_retries, enqueued, updated) "
                    "VALUES (?, ?, ?, ?, 0, ?, ?, ?)",
                    (key, pickle.dumps(request),
                     type(request).__name__, state, max_retries, now, now),
                )
                if state == "done":
                    report.done_from_store.append(key)
                else:
                    report.enqueued.append(key)
            if groups:
                conn.executemany(
                    "INSERT OR REPLACE INTO job_groups (key, grp) "
                    "VALUES (?, ?)",
                    [(key, groups[key])
                     for key in report.enqueued + report.resumed_failed
                     if key in groups])
        return report

    # -- worker side -------------------------------------------------------

    def lease(self, owner: str, *, ttl_s: float = 30.0,
              limit: int = 1) -> List[Lease]:
        """Atomically claim up to ``limit`` pending jobs for ``owner``,
        each with every other pending job of its lockstep group.

        The claim charges the attempt budget immediately: a worker that
        dies after this call has consumed one attempt, which is what
        lets ``reclaim`` fail a job that keeps killing its workers.
        """
        now = time.time()
        leases: List[Lease] = []
        with self._backend.transaction() as conn:
            rows = conn.execute(
                "SELECT jobs.key, request, attempts, max_retries, grp "
                "FROM jobs LEFT JOIN job_groups USING (key) "
                "WHERE state='pending' AND not_before <= ? "
                "ORDER BY enqueued, jobs.rowid LIMIT ?",
                (now, limit),
            ).fetchall()
            for group in dict.fromkeys(row[4] for row in rows
                                       if row[4] is not None):
                # A group's members ride along even while backing off:
                # they fail and retry together anyway.
                rows += conn.execute(
                    "SELECT jobs.key, request, attempts, max_retries, grp "
                    "FROM job_groups JOIN jobs USING (key) "
                    "WHERE grp = ? AND state='pending' "
                    "ORDER BY enqueued, jobs.rowid", (group,),
                ).fetchall()
            rows = list({row[0]: row for row in rows}.values())
            for key, blob, attempts, max_retries, group in rows:
                conn.execute(
                    "UPDATE jobs SET state='leased', owner=?, "
                    "lease_expires=?, attempts=attempts+1, updated=? "
                    "WHERE key=?",
                    (owner, now + ttl_s, now, key),
                )
                leases.append(Lease(key=key,
                                    request=pickle.loads(blob),
                                    attempt=attempts,
                                    max_retries=max_retries,
                                    group=group))
        return leases

    def heartbeat(self, keys: Sequence[str], owner: str, *,
                  ttl_s: float = 30.0) -> int:
        """Extend the lease TTL for jobs ``owner`` still holds.

        Returns how many leases were actually extended — fewer than
        ``len(keys)`` means some were reclaimed out from under the
        worker (its earlier lease expired), and their results should be
        treated as advisory: still safe to write (same key → same
        result) but the job's lifecycle now belongs to someone else.
        """
        if not keys:
            return 0
        now = time.time()
        extended = 0
        with self._backend.transaction() as conn:
            for key in keys:
                cur = conn.execute(
                    "UPDATE jobs SET lease_expires=?, updated=? "
                    "WHERE key=? AND state='leased' AND owner=?",
                    (now + ttl_s, now, key, owner),
                )
                extended += cur.rowcount
        return extended

    def complete(self, key: str, owner: Optional[str] = None) -> None:
        """Mark ``key`` done (unconditionally — completion is benign).

        No owner check on the state transition: even if the lease was
        reclaimed and re-leased elsewhere, the result the original
        worker produced is *the* result for this key, so done is done.
        """
        self._backend.commit(
            "UPDATE jobs SET state='done', owner=?, lease_expires=NULL, "
            "error=NULL, updated=? WHERE key=?",
            (owner, time.time(), key),
        )

    def fail(self, key: str, failure: RequestFailure, *,
             backoff_s: float = 0.0, retry: bool = True) -> str:
        """Record a failed attempt; requeue if budget remains.

        ``retry=False`` fails the job whatever its budget (fail-fast).
        Returns the resulting state (``pending`` or ``failed``).  The
        failure is stored as JSON either way, so ``repro queue status``
        can show why a job is waiting or dead.
        """
        now = time.time()
        error = json.dumps(failure.to_dict(), separators=(",", ":"))
        with self._backend.transaction() as conn:
            row = conn.execute(
                "SELECT attempts, max_retries FROM jobs WHERE key=?",
                (key,),
            ).fetchone()
            if row is None:
                return "failed"
            attempts, max_retries = row
            state = ("pending" if retry and attempts <= max_retries
                     else "failed")
            conn.execute(
                "UPDATE jobs SET state=?, owner=NULL, lease_expires=NULL, "
                "not_before=?, error=?, updated=? WHERE key=?",
                (state, now + backoff_s, error, now, key),
            )
        return state

    def cancel(self, keys: Sequence[str],
               error: str) -> List[RequestFailure]:
        """Fail every still-``pending`` job among ``keys`` as cancelled.

        Fail-fast: jobs already leased run on and settle normally.
        Returns one ``cancelled`` failure per job cancelled, in ``keys``
        order; a later dispatch resets them like any failed job.
        """
        now = time.time()
        failures: List[RequestFailure] = []
        with self._backend.transaction() as conn:
            for key in keys:
                row = conn.execute(
                    "SELECT attempts FROM jobs "
                    "WHERE key=? AND state='pending'", (key,)
                ).fetchone()
                if row is None:
                    continue
                failure = RequestFailure(key=key, kind="cancelled",
                                         error=error, attempts=row[0])
                conn.execute(
                    "UPDATE jobs SET state='failed', error=?, updated=? "
                    "WHERE key=?",
                    (json.dumps(failure.to_dict(), separators=(",", ":")),
                     now, key),
                )
                failures.append(failure)
        return failures

    def release(self, key: str) -> None:
        """Requeue a leased job without charging its attempt budget.

        For innocent casualties: the worker's pool broke because a
        *different* job crashed it or hung, or the worker stopped
        draining before the job settled, so this job gets its attempt
        back.
        """
        with self._backend.transaction() as conn:
            conn.execute(
                "UPDATE jobs SET state='pending', owner=NULL, "
                "lease_expires=NULL, not_before=0, "
                "attempts=MAX(attempts - 1, 0), updated=? "
                "WHERE key=? AND state='leased'",
                (time.time(), key),
            )

    # -- janitor -----------------------------------------------------------

    def reclaim(self, live: Sequence[str] = ()
                ) -> Tuple[List[RequestFailure], List[RequestFailure]]:
        """Requeue (or fail) every job whose lease has expired.

        Any process may call this — dispatcher, worker, or `repro queue
        status`; the transaction makes concurrent reclaims safe.
        ``live`` names the caller's own leases that it is still working
        on: they are never reclaimed, whatever their expiry says (a
        worker that stalls between its heartbeat and this call is not
        dead).  Returns ``(requeued, failed)`` as lists of the synthetic
        ``crash`` :class:`~repro.engine.faults.RequestFailure` records
        written to the affected jobs.
        """
        now = time.time()
        live = frozenset(live)
        requeued: List[RequestFailure] = []
        failed: List[RequestFailure] = []
        with self._backend.transaction() as conn:
            rows = conn.execute(
                "SELECT key, attempts, max_retries, owner FROM jobs "
                "WHERE state='leased' AND lease_expires < ?",
                (now,),
            ).fetchall()
            for key, attempts, max_retries, owner in rows:
                if key in live:
                    continue
                failure = RequestFailure(
                    key=key, kind="crash",
                    error=(f"lease expired (worker {owner or '?'} "
                           "presumed dead)"),
                    attempts=attempts, worker=owner,
                )
                error = json.dumps(failure.to_dict(),
                                   separators=(",", ":"))
                requeue = attempts <= max_retries
                conn.execute(
                    "UPDATE jobs SET state=?, owner=NULL, "
                    "lease_expires=NULL, not_before=0, error=?, "
                    "updated=? WHERE key=?",
                    ("pending" if requeue else "failed", error, now, key),
                )
                (requeued if requeue else failed).append(failure)
        return requeued, failed

    def reset_failed(self) -> List[str]:
        """Return every ``failed`` job to ``pending`` with a fresh budget
        (what ``repro exp resume`` does before starting workers)."""
        now = time.time()
        with self._backend.transaction() as conn:
            rows = conn.execute(
                "SELECT key FROM jobs WHERE state='failed'"
            ).fetchall()
            keys = [key for (key,) in rows]
            conn.execute(
                "UPDATE jobs SET state='pending', attempts=0, owner=NULL, "
                "lease_expires=NULL, not_before=0, error=NULL, updated=? "
                "WHERE state='failed'",
                (now,),
            )
        return keys

    # -- introspection -----------------------------------------------------

    def get(self, key: str) -> Optional[JobRecord]:
        row = self._backend.execute(
            "SELECT key, kind, state, attempts, max_retries, owner, "
            "lease_expires, not_before, enqueued, updated, error "
            "FROM jobs WHERE key=?", (key,)
        ).fetchone()
        return self._record(row) if row is not None else None

    def states(self, keys: Sequence[str]) -> Dict[str, str]:
        """``{key: state}`` for the given keys (absent keys omitted)."""
        out: Dict[str, str] = {}
        keys = list(keys)
        for i in range(0, len(keys), 500):
            chunk = keys[i:i + 500]
            marks = ",".join("?" * len(chunk))
            for key, state in self._backend.execute(
                    f"SELECT key, state FROM jobs WHERE key IN ({marks})",
                    tuple(chunk)):
                out[key] = state
        return out

    def counts(self) -> Dict[str, int]:
        """``{state: row count}`` with every state present (0 if empty)."""
        counts = {state: 0 for state in JOB_STATES}
        for state, n in self._backend.execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state"):
            counts[state] = n
        return counts

    def leases(self) -> List[JobRecord]:
        """Active leases, oldest first."""
        rows = self._backend.execute(
            "SELECT key, kind, state, attempts, max_retries, owner, "
            "lease_expires, not_before, enqueued, updated, error "
            "FROM jobs WHERE state='leased' ORDER BY updated"
        ).fetchall()
        return [self._record(row) for row in rows]

    def attempt_histogram(self) -> Dict[int, int]:
        """``{attempt count: jobs}`` over all jobs in the queue."""
        return {attempts: n for attempts, n in self._backend.execute(
            "SELECT attempts, COUNT(*) FROM jobs "
            "GROUP BY attempts ORDER BY attempts")}

    def jobs(self, state: Optional[str] = None) -> List[JobRecord]:
        sql = ("SELECT key, kind, state, attempts, max_retries, owner, "
               "lease_expires, not_before, enqueued, updated, error "
               "FROM jobs")
        params: tuple = ()
        if state is not None:
            sql += " WHERE state=?"
            params = (state,)
        sql += " ORDER BY enqueued, rowid"
        return [self._record(row)
                for row in self._backend.execute(sql, params).fetchall()]

    def next_due(self) -> Optional[float]:
        """Wall-clock time the earliest ``pending`` job becomes leasable
        (its retry backoff's ``not_before``), or None when none is
        pending."""
        (due,) = self._backend.execute(
            "SELECT MIN(not_before) FROM jobs WHERE state='pending'"
        ).fetchone()
        return due

    def pending(self) -> int:
        (n,) = self._backend.execute(
            "SELECT COUNT(*) FROM jobs WHERE state='pending'"
        ).fetchone()
        return n

    def drained(self) -> bool:
        """True when no job is pending or leased (campaign settled)."""
        (n,) = self._backend.execute(
            "SELECT COUNT(*) FROM jobs "
            "WHERE state IN ('pending', 'leased')"
        ).fetchone()
        return n == 0

    def __len__(self) -> int:
        (n,) = self._backend.execute(
            "SELECT COUNT(*) FROM jobs").fetchone()
        return n

    @staticmethod
    def _record(row) -> JobRecord:
        (key, kind, state, attempts, max_retries, owner, lease_expires,
         not_before, enqueued, updated, error) = row
        return JobRecord(
            key=key, kind=kind, state=state, attempts=attempts,
            max_retries=max_retries, owner=owner,
            lease_expires=lease_expires, not_before=not_before,
            enqueued=enqueued, updated=updated,
            error=json.loads(error) if error else None,
        )

    def close(self) -> None:
        self._backend.close()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        counts = self.counts()
        body = ", ".join(f"{state}={counts[state]}"
                         for state in JOB_STATES if counts[state])
        return f"JobQueue({str(self.path)!r}, {body or 'empty'})"
