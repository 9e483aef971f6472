"""Persistent, content-addressed result store.

A thin SQLite key→payload table: the key is a request's content hash
(:meth:`repro.engine.jobs.RunRequest.key`), the payload is the JSON
serialization of its result.  Each result kind has one row layout, its
parts one newline apart (compact JSON has none):

* a run row is its *head* (schema, kind, workload, instructions,
  cycles, and the CRC-32s of the other two parts), its *counters* (the
  ``stats`` object) and its *history* (``epochs`` and ``actions``,
  compressed with zlib);
* a mix row is its head (schema, kind, each core's workload,
  instructions and cycles, and the counters' CRC-32) and its counters
  (one ``stats`` object per core).

A warm lookup reads with ``summary=True``: it parses only the head and
checks both CRCs, and the counters and the history stay views of the
stored row, parsed on the first read of a result's ``stats``, epochs
or actions (see :func:`repro.engine.jobs.decode_result`).  A result row
in any other layout (the one-document and summary-plus-history layouts
of older checkouts) is a miss.  Any other payload is stored as one
document.  The database plumbing — WAL mode, busy timeout, bounded
retry when a concurrent writer holds the lock, the foreign-file guard —
is the shared :class:`~repro.engine.backend.SQLiteBackend` seam, the
same abstraction the durable :class:`~repro.engine.queue.JobQueue` sits
on, so the two halves of a crash-resumable campaign (results and job
lifecycle) speak one database discipline and may even share one file.

Writers of the same key race benignly because identical keys imply
identical payloads — that is what makes the store safe for many
concurrent worker *processes* (parallel CI steps, `repro worker`
fleets, several ``repro`` invocations sharing one cache).

The store is a cache, never a source of truth — any unreadable database
file or undecodable row is discarded and the run recomputed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib
import sqlite3
import time
import zlib
from typing import Iterator, Optional, Union

from .backend import SQLiteBackend, commit_with_retry, execute_with_retry

PathLike = Union[str, pathlib.Path]


class StoreDecodeError(RuntimeError):
    """A store payload could not be decoded (corrupt or stale entry)."""


#: A core's totals: the head of a run row, and each core's head in a
#: mix row.
_CORE_HEAD = ("workload", "instructions", "cycles")

#: A run payload's per-epoch fields, stored compressed after its
#: counters.
_HISTORY_FIELDS = ("epochs", "actions")

#: The fields of a result payload, per kind: a payload with exactly
#: these is stored in its kind's layout, any other as one document.
_RESULT_FIELDS = {"run": {"schema", "kind", *_CORE_HEAD, "stats",
                          *_HISTORY_FIELDS},
                  "mix": {"schema", "kind", "cores"}}

#: Head fields holding the CRC-32s of the parts after the head, in row
#: order, per result kind.
_PART_CRCS = {"run": ("counters_crc", "history_crc"),
              "mix": ("counters_crc",)}

#: zlib level of a stored history: the fastest, which already shrinks
#: a run's history 7-12x (it is mostly repeated field names).
_ZLIB_LEVEL = 1

#: Fields of a ``get(key, summary=True)`` payload holding a row's
#: unparsed parts as views of its stored bytes (``memoryview``): the
#: counters (a compact JSON document) and a run's zlib history.
COUNTERS = "counters"
HISTORY_ZLIB = "history"


def _compact(payload) -> str:
    return json.dumps(payload, separators=(",", ":"))


def _head(core: dict) -> dict:
    return {name: core[name] for name in _CORE_HEAD}


def _is_result(payload: dict) -> bool:
    return payload.keys() == _RESULT_FIELDS.get(payload.get("kind"))


def _encode_row(payload: dict) -> Union[str, bytes]:
    """The stored row of ``payload``: head, counters and compressed
    history for a run, head and counters for a mix, one document for
    anything else."""
    kind = payload.get("kind")
    if not _is_result(payload):
        return _compact(payload)
    if kind == "run":
        head = {"schema": payload["schema"], "kind": kind, **_head(payload)}
        history = _compact({field: payload[field]
                            for field in _HISTORY_FIELDS})
        parts = (_compact(payload["stats"]).encode(),
                 zlib.compress(history.encode(), _ZLIB_LEVEL))
    else:
        cores = payload["cores"]
        head = {"schema": payload["schema"], "kind": kind,
                "cores": [_head(core) for core in cores]}
        parts = (_compact([core["stats"] for core in cores]).encode(),)
    for field, part in zip(_PART_CRCS[kind], parts):
        head[field] = zlib.crc32(part)
    return b"\n".join((_compact(head).encode(),) + parts)


def _parts(head: dict, raw: bytes, end: int) -> list:
    """The parts of result row ``raw`` after its head (which ends at
    ``end``), as views of ``raw``, each checked against the CRC-32 that
    ``head`` holds for it; the CRC fields leave ``head``.

    Raises :exc:`ValueError` or :exc:`KeyError` for a damaged row and
    for a row in any other layout.
    """
    view = memoryview(raw)
    fields = _PART_CRCS[head["kind"]]
    parts = []
    for index, field in enumerate(fields):
        start = end + 1
        end = len(raw) if index == len(fields) - 1 \
            else raw.find(b"\n", start)
        if end < 0:
            raise ValueError(f"a {head['kind']} row with too few parts")
        part = view[start:end]
        if head.pop(field) != zlib.crc32(part):
            raise ValueError(f"{field} mismatch")
        parts.append(part)
    return parts


def load_history(data: memoryview) -> dict:
    """Inflate and parse a stored history (:data:`HISTORY_ZLIB`).

    Raises :exc:`ValueError` when ``data`` is not zlib or not JSON;
    ``zlib.error`` is not a ``ValueError``, so it is mapped here.
    """
    try:
        text = zlib.decompress(data)
    except zlib.error as exc:
        raise ValueError(f"history is not valid zlib: {exc}") from exc
    return json.loads(text)


def _restore(head: dict, parts: list) -> None:
    """Parse a result row's checked ``parts`` into its ``head``, which
    then equals the stored payload, key order included."""
    stats = json.loads(str(parts[0], "utf-8"))
    if head["kind"] == "run":
        head["stats"] = stats
        head.update(load_history(parts[1]))
        return
    cores = head["cores"]
    if not isinstance(stats, list) or len(stats) != len(cores):
        raise ValueError("a mix's counters do not match its cores")
    head["cores"] = [dict(core, stats=row) for core, row in zip(cores, stats)]


@functools.lru_cache(maxsize=None)
def _source_digest() -> str:
    """sha256 over the ``repro`` package's ``.py`` files, each hashed
    with its path relative to the package; computed on first use."""
    package = pathlib.Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for rel, path in sorted((path.relative_to(package).as_posix(), path)
                            for path in package.rglob("*.py")):
        data = path.read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def source_tag() -> str:
    """12 hex digits naming this source tree: the start of
    :func:`_source_digest`.  Default store paths carry it."""
    return _source_digest()[:12]


def default_store_path() -> pathlib.Path:
    """``$REPRO_STORE`` if set, else
    ``~/.cache/repro/results-<12 hex>.sqlite``.

    Keys cover a request's inputs, not the simulator's code, so the
    default store is per source tree: the hex is :func:`source_tag`,
    and two checkouts that differ in any module never read each
    other's results.
    """
    env = os.environ.get("REPRO_STORE")
    if env:
        return pathlib.Path(env)
    cache_home = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(cache_home) if cache_home \
        else pathlib.Path.home() / ".cache"
    return base / "repro" / f"results-{source_tag()}.sqlite"


class ResultStore:
    """On-disk run-key → serialized-result mapping."""

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS results (
            key     TEXT PRIMARY KEY,
            payload TEXT NOT NULL,
            created REAL NOT NULL
        )
    """

    def __init__(self, path: Optional[PathLike] = None, *,
                 busy_timeout_s: float = 30.0) -> None:
        self.path = pathlib.Path(path) if path else default_store_path()
        try:
            self._backend = SQLiteBackend(self.path, schema=self._SCHEMA,
                                          busy_timeout_s=busy_timeout_s)
        except ValueError:
            # Same guard, store-specific message (a mistyped --store /
            # REPRO_STORE pointing at a real file must not destroy it).
            raise ValueError(
                f"{self.path} exists and is not a SQLite result store; "
                "refusing to overwrite it"
            ) from None
        self._conn = self._backend.connection

    # -- raw access --------------------------------------------------------

    def get(self, key: str, *, summary: bool = False) -> Optional[dict]:
        """The decoded JSON payload for ``key``, or ``None``.

        With ``summary``, a result row's parts are checked against their
        CRC-32s but not parsed: the payload holds the head's fields and,
        under :data:`COUNTERS` and (for a run) :data:`HISTORY_ZLIB`,
        views (``memoryview``) of the stored counters and history.
        Without it, the payload is exactly the one that was stored.

        The row is read once, as bytes; the head is the only part
        copied out of it, so a summary lookup holds one row-sized buffer.

        A row that fails its CRCs, or whose parts are not valid JSON or
        zlib, is deleted and reported as a miss — partial writes from a
        killed process must never crash a later reader — and so is a
        result row in any other layout.  Database-level corruption
        discovered at read time (pages torn after the header was
        validated) is likewise a miss: the store is a cache, never a
        source of truth.
        """
        try:
            row = execute_with_retry(
                self._conn,
                "SELECT CAST(payload AS BLOB) FROM results WHERE key = ?",
                (key,)
            ).fetchone()
        except sqlite3.DatabaseError:
            return None
        if row is None:
            return None
        raw = row[0]
        end = raw.find(b"\n")
        try:
            # str() first: json.loads detects the encoding of bytes in
            # Python, which costs more than parsing a run's head.
            payload = json.loads(str(raw if end < 0 else raw[:end], "utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("payload is not a JSON object")
            if end < 0:
                if _is_result(payload):
                    raise ValueError("a result in the one-document layout")
            elif summary:
                parts = _parts(payload, raw, end)
                payload[COUNTERS] = parts[0]
                if payload["kind"] == "run":
                    payload[HISTORY_ZLIB] = parts[1]
            else:
                _restore(payload, _parts(payload, raw, end))
        except (ValueError, TypeError, KeyError):
            self.delete(key)
            return None
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Write one payload; retried when a concurrent worker holds
        the write lock (bounded, see :mod:`repro.engine.backend`)."""
        self._commit(
            "INSERT OR REPLACE INTO results (key, payload, created) "
            "VALUES (?, ?, ?)",
            (key, _encode_row(payload), time.time()),
        )

    def delete(self, key: str) -> None:
        self._commit("DELETE FROM results WHERE key = ?", (key,))

    def _commit(self, sql: str, params=()) -> None:
        """Statement + commit through the backend's retry discipline,
        on this store's own connection (fault tests substitute it)."""
        execute_with_retry(self._conn, sql, params)
        commit_with_retry(self._conn)

    def keys(self) -> Iterator[str]:
        for (key,) in execute_with_retry(self._conn,
                                         "SELECT key FROM results"):
            yield key

    def __len__(self) -> int:
        (count,) = execute_with_retry(
            self._conn, "SELECT COUNT(*) FROM results"
        ).fetchone()
        return count

    def mean_row_bytes(self) -> float:
        """Mean stored bytes of a row's payload (0.0 when empty)."""
        (mean,) = execute_with_retry(
            self._conn,
            "SELECT AVG(LENGTH(CAST(payload AS BLOB))) FROM results"
        ).fetchone()
        return mean or 0.0

    def __contains__(self, key: str) -> bool:
        return self.get(key, summary=True) is not None

    def clear(self) -> None:
        self._commit("DELETE FROM results")

    def close(self) -> None:
        self._backend.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ResultStore({str(self.path)!r}, entries={len(self)})"
