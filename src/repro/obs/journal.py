"""Append-only JSONL run journal: write, validate, aggregate.

One journal = one engine lifetime = one file of newline-delimited JSON
events, written by the parent process only (workers ship their spans
back on result payloads; see :mod:`repro.obs.spans`).  Activate with
``--telemetry PATH`` on any engine-backed command, or by exporting
``REPRO_TELEMETRY=PATH``.

Event vocabulary (see :data:`EVENT_FIELDS` for the exact schema):

``start``
    Engine birth: schema version, pid, jobs, and run provenance
    (git commit, dirty flag, hostname).
``request``
    One resolved engine request: content key, ``outcome`` of the tier
    that served it (``memo``/``store``/``executed``), result kind,
    wall time, worker id, and the request's phase spans.
``span``
    A standalone parent-side phase (e.g. ``plan``) not tied to one
    request.
``failure``
    One failed request attempt: content key, failure ``kind``
    (``exception``/``timeout``/``crash``/``corrupt``/``cancelled``),
    attempt number, and whether the engine is retrying it
    (``retrying=false`` marks a terminal failure).
``rebuild``
    The worker pool died and was rebuilt: cumulative rebuild count and
    whether the pool has degraded to inline execution.
``dispatch`` / ``lease`` / ``reclaim``
    Durable-queue lifecycle (see :mod:`repro.engine.queue`): a spec
    lowered into enqueued jobs, a worker taking leases, and expired
    leases recycled after a worker died.
``summary``
    Engine shutdown: the machine-readable counters
    (:meth:`~repro.engine.api.EngineCounters.to_dict`) and the full
    metric registry snapshot.  Always the final event of a clean run.

The aggregation half (:func:`summarize_journal`,
:func:`aggregate_spans`) powers ``repro obs summary|spans|export``:
per-phase wall/CPU breakdowns, per-worker request counts, and outcome
totals, all from the journal alone — no live process needed.
"""

from __future__ import annotations

import json
import pathlib
import socket
import subprocess
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..engine.faults import FAILURE_KINDS

__all__ = [
    "FAILURE_KINDS",
    "JOURNAL_SCHEMA",
    "RunJournal",
    "aggregate_spans",
    "format_spans",
    "format_summary",
    "provenance",
    "read_journal",
    "summarize_journal",
    "summarize_journals",
    "validate_event",
    "validate_journal",
]

JOURNAL_SCHEMA = 1

OUTCOMES = ("memo", "store", "executed")

#: required fields (beyond ``ts``/``type``) per event type.  Extra
#: fields are always allowed — the schema pins what consumers rely on.
EVENT_FIELDS = {
    "start": {"schema": (int,), "pid": (int,)},
    "request": {"key": (str,), "outcome": (str,), "spans": (list,)},
    "span": {"name": (str,), "wall_s": (int, float)},
    "failure": {"key": (str,), "kind": (str,), "attempt": (int,),
                "retrying": (bool,)},
    "rebuild": {"rebuilds": (int,)},
    "dispatch": {"queue": (str,), "enqueued": (int,)},
    "lease": {"owner": (str,), "count": (int,), "keys": (list,)},
    "reclaim": {"owner": (str,), "requeued": (list,), "failed": (list,)},
    "summary": {"counters": (dict,)},
}

_SPAN_FIELDS = {"name": (str,), "wall_s": (int, float),
                "cpu_s": (int, float)}

PathLike = Union[str, pathlib.Path]


def provenance(root: Optional[PathLike] = None) -> dict:
    """Where and on what this run happened: git commit, dirty flag,
    hostname.  Git fields are ``None`` outside a repository (or without
    a ``git`` binary) — provenance must never fail a run."""
    info = {
        "hostname": socket.gethostname(),
        "git_commit": None,
        "git_dirty": None,
    }
    cwd = str(root) if root is not None else None
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
        if head.returncode == 0:
            info["git_commit"] = head.stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain"],
                cwd=cwd, capture_output=True, text=True, timeout=10,
            )
            if status.returncode == 0:
                info["git_dirty"] = bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return info


class RunJournal:
    """Append-only JSONL event writer (parent process only).

    Every event is one line, flushed immediately: a crashed run leaves
    a readable journal up to its last completed request.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = pathlib.Path(path)
        if self.path.parent != pathlib.Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    def event(self, type: str, **fields) -> None:
        """Append one event (adds ``ts``; ``start`` adds ``schema``)."""
        record = {"ts": time.time(), "type": type}
        if type == "start":
            record["schema"] = JOURNAL_SCHEMA
        record.update(fields)
        self._fh.write(json.dumps(record, separators=(",", ":"),
                                  default=repr) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"RunJournal({str(self.path)!r})"


# ---------------------------------------------------------------------------
# reading + validation
# ---------------------------------------------------------------------------

def read_journal(path: PathLike) -> Iterator[Tuple[int, dict]]:
    """Yield ``(lineno, event)`` pairs; raises ``ValueError`` on a line
    that is not a JSON object (a truncated tail line from a crashed
    writer is skipped silently — only the *final* line may be cut, and
    only when earlier lines prove the file ever was a journal)."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise ValueError(
            f"{path} is not a JSONL journal (binary data)"
        ) from None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            # Torn final write from a crash — but a one-line file with
            # garbage is not a journal at all, and must error rather
            # than quietly summarize as zero events.
            if lineno == len(lines) and lineno > 1:
                continue
            raise ValueError(
                f"{path}:{lineno}: not valid JSON"
            ) from None
        if not isinstance(event, dict):
            raise ValueError(f"{path}:{lineno}: event is not an object")
        yield lineno, event


def validate_event(event: dict) -> List[str]:
    """Schema errors for one event ([] when valid)."""
    errors = []
    if not isinstance(event, dict):
        return ["event is not an object"]
    if not isinstance(event.get("ts"), (int, float)):
        errors.append("missing/non-numeric ts")
    etype = event.get("type")
    if etype not in EVENT_FIELDS:
        errors.append(f"unknown event type {etype!r}")
        return errors
    for field, types in EVENT_FIELDS[etype].items():
        if not isinstance(event.get(field), types):
            errors.append(f"{etype} event: missing/invalid {field!r}")
    if etype == "failure":
        if event.get("kind") not in FAILURE_KINDS:
            errors.append(
                f"failure event: kind {event.get('kind')!r} "
                f"not in {FAILURE_KINDS}"
            )
    if etype == "request":
        if event.get("outcome") not in OUTCOMES:
            errors.append(
                f"request event: outcome {event.get('outcome')!r} "
                f"not in {OUTCOMES}"
            )
        for i, span in enumerate(event.get("spans") or ()):
            if not isinstance(span, dict):
                errors.append(f"request event: spans[{i}] not an object")
                continue
            for field, types in _SPAN_FIELDS.items():
                if not isinstance(span.get(field), types):
                    errors.append(
                        f"request event: spans[{i}] missing/invalid "
                        f"{field!r}"
                    )
    return errors


def validate_journal(path: PathLike) -> List[str]:
    """Every schema/parse error in the journal, prefixed with line
    numbers ([] when the whole file validates)."""
    errors: List[str] = []
    try:
        for lineno, event in read_journal(path):
            errors.extend(
                f"{path}:{lineno}: {error}"
                for error in validate_event(event)
            )
    except (OSError, ValueError) as exc:
        errors.append(str(exc))
    return errors


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _iter_spans(events) -> Iterator[dict]:
    for event in events:
        if event.get("type") == "request":
            for span in event.get("spans") or ():
                yield span
        elif event.get("type") == "span":
            yield event


def summarize_journal(path: PathLike) -> dict:
    """Aggregate one journal into per-phase / per-worker breakdowns."""
    events = [event for _, event in read_journal(path)]
    requests = {outcome: 0 for outcome in OUTCOMES}
    workers: Dict[str, int] = {}
    phases: Dict[str, dict] = {}
    failures = {"retried": 0, "terminal": 0}
    queue = {"dispatched": 0, "leases": 0, "reclaims": 0}
    rebuilds = 0
    for event in events:
        if event.get("type") == "request":
            outcome = event.get("outcome")
            if outcome in requests:
                requests[outcome] += 1
            worker = event.get("worker")
            if worker and outcome == "executed":
                workers[worker] = workers.get(worker, 0) + 1
        elif event.get("type") == "failure":
            if event.get("retrying"):
                failures["retried"] += 1
            else:
                failures["terminal"] += 1
        elif event.get("type") == "rebuild":
            rebuilds = max(rebuilds, event.get("rebuilds") or 0)
        elif event.get("type") == "dispatch":
            queue["dispatched"] += event.get("enqueued") or 0
        elif event.get("type") == "lease":
            queue["leases"] += event.get("count") or 0
        elif event.get("type") == "reclaim":
            queue["reclaims"] += (len(event.get("requeued") or ())
                                  + len(event.get("failed") or ()))
    for span in _iter_spans(events):
        name = span.get("name", "?")
        phase = phases.setdefault(
            name, {"count": 0, "wall_s": 0.0, "cpu_s": 0.0}
        )
        phase["count"] += 1
        phase["wall_s"] += span.get("wall_s") or 0.0
        phase["cpu_s"] += span.get("cpu_s") or 0.0
    timestamps = [e["ts"] for e in events
                  if isinstance(e.get("ts"), (int, float))]
    counters = {}
    for event in events:
        if event.get("type") == "summary":
            counters = event.get("counters") or {}
    return {
        "journals": 1,
        "events": len(events),
        "started": min(timestamps) if timestamps else None,
        "ended": max(timestamps) if timestamps else None,
        "duration_s": (max(timestamps) - min(timestamps)) if timestamps
        else 0.0,
        "requests": dict(requests,
                         total=sum(requests.values())),
        "phases": phases,
        "workers": workers,
        "failures": failures,
        "queue": queue,
        "rebuilds": rebuilds,
        "counters": counters,
    }


def summarize_journals(paths: Sequence[PathLike]) -> dict:
    """Aggregate several journals (one per worker process) into one
    campaign report.

    Additive fields (requests, phases, workers, failures, queue
    activity, rebuilds, final counters) sum across journals; the
    campaign duration spans the earliest to the latest event over *all*
    files, so concurrent workers do not double-count wall time.
    """
    paths = list(paths)
    if not paths:
        raise ValueError("summarize_journals needs at least one journal")
    merged: Optional[dict] = None
    for path in paths:
        part = summarize_journal(path)
        if merged is None:
            merged = part
            continue
        merged["journals"] += 1
        merged["events"] += part["events"]
        for bound, pick in (("started", min), ("ended", max)):
            values = [v for v in (merged[bound], part[bound])
                      if v is not None]
            merged[bound] = pick(values) if values else None
        for outcome, count in part["requests"].items():
            merged["requests"][outcome] = (
                merged["requests"].get(outcome, 0) + count)
        for name, phase in part["phases"].items():
            into = merged["phases"].setdefault(
                name, {"count": 0, "wall_s": 0.0, "cpu_s": 0.0})
            for field in ("count", "wall_s", "cpu_s"):
                into[field] += phase[field]
        for worker, count in part["workers"].items():
            merged["workers"][worker] = (
                merged["workers"].get(worker, 0) + count)
        for field in ("retried", "terminal"):
            merged["failures"][field] += part["failures"][field]
        for field in ("dispatched", "leases", "reclaims"):
            merged["queue"][field] += part["queue"][field]
        merged["rebuilds"] += part["rebuilds"]
        for name, value in part["counters"].items():
            if isinstance(value, (int, float)) and not isinstance(
                    value, bool):
                merged["counters"][name] = (
                    merged["counters"].get(name, 0) + value)
            else:
                merged["counters"].setdefault(name, value)
    if merged["started"] is not None and merged["ended"] is not None:
        merged["duration_s"] = merged["ended"] - merged["started"]
    return merged


def aggregate_spans(path: PathLike) -> List[dict]:
    """Per-name span totals, sorted by total wall time (desc)."""
    totals: Dict[str, dict] = {}
    for span in _iter_spans(event for _, event in read_journal(path)):
        name = span.get("name", "?")
        agg = totals.setdefault(
            name,
            {"name": name, "count": 0, "wall_s": 0.0, "cpu_s": 0.0,
             "max_wall_s": 0.0},
        )
        wall = span.get("wall_s") or 0.0
        agg["count"] += 1
        agg["wall_s"] += wall
        agg["cpu_s"] += span.get("cpu_s") or 0.0
        agg["max_wall_s"] = max(agg["max_wall_s"], wall)
    return sorted(totals.values(), key=lambda a: -a["wall_s"])


# ---------------------------------------------------------------------------
# formatting (the ``repro obs`` tables)
# ---------------------------------------------------------------------------

def format_summary(summary: dict) -> str:
    requests = summary["requests"]
    journals = summary.get("journals", 1)
    source = "journal" if journals == 1 else f"{journals} journals"
    lines = [
        f"{source}: {summary['events']} events over "
        f"{summary['duration_s']:.2f}s",
        f"requests: {requests['executed']} executed, "
        f"{requests['store']} store hits, {requests['memo']} memo hits "
        f"({requests['total']} total)",
    ]
    queue = summary.get("queue") or {}
    if queue.get("dispatched") or queue.get("leases") \
            or queue.get("reclaims"):
        lines.append(
            f"queue: {queue.get('dispatched', 0)} dispatched, "
            f"{queue.get('leases', 0)} leases, "
            f"{queue.get('reclaims', 0)} reclaims"
        )
    failures = summary.get("failures") or {}
    if failures.get("retried") or failures.get("terminal") \
            or summary.get("rebuilds"):
        lines.append(
            f"failures: {failures.get('retried', 0)} retried, "
            f"{failures.get('terminal', 0)} terminal; "
            f"pool rebuilds: {summary.get('rebuilds', 0)}"
        )
    if summary["phases"]:
        lines.append("")
        lines.append(f"{'phase':16s} {'count':>7s} {'wall s':>10s} "
                     f"{'cpu s':>10s}")
        for name, phase in sorted(summary["phases"].items(),
                                  key=lambda kv: -kv[1]["wall_s"]):
            lines.append(
                f"{name:16s} {phase['count']:>7d} "
                f"{phase['wall_s']:>10.3f} {phase['cpu_s']:>10.3f}"
            )
    if summary["workers"]:
        lines.append("")
        lines.append("executed per worker:")
        for worker, count in sorted(summary["workers"].items()):
            lines.append(f"  {worker:12s} {count:>5d}")
    if summary["counters"]:
        lines.append("")
        lines.append("final counters: " + ", ".join(
            f"{name}={value}"
            for name, value in sorted(summary["counters"].items())
        ))
    return "\n".join(lines)


def format_spans(aggregated: List[dict]) -> str:
    lines = [f"{'span':16s} {'count':>7s} {'wall s':>10s} {'cpu s':>10s} "
             f"{'max s':>9s}"]
    for agg in aggregated:
        lines.append(
            f"{agg['name']:16s} {agg['count']:>7d} {agg['wall_s']:>10.3f} "
            f"{agg['cpu_s']:>10.3f} {agg['max_wall_s']:>9.3f}"
        )
    return "\n".join(lines)
