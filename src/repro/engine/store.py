"""Persistent, content-addressed result store.

A thin SQLite key→payload table: the key is a request's content hash
(:meth:`repro.engine.jobs.RunRequest.key`), the payload is the JSON
serialization of its result.  A run payload is stored as its
*summary*, a compact JSON document (every field but the per-epoch
``epochs`` and ``actions``, plus the CRC-32 of the stored history), a
newline (compact JSON has none), and its *history*: those two fields as
compact JSON, compressed with zlib.  A warm lookup reads with
``summary=True``, checks the CRC and parses only the summary; the
history is inflated and parsed on the first read of a run's epochs or
actions (see :func:`repro.engine.jobs.decode_result`).  Mix payloads
have no history and stay one document.  Rows of the two older layouts
(one document, and a summary followed by plain history text under
``history_crc``) still read, whole.  The database plumbing — WAL mode,
busy timeout, bounded retry when a concurrent writer holds the lock,
the foreign-file guard — is the shared
:class:`~repro.engine.backend.SQLiteBackend` seam, the same abstraction
the durable :class:`~repro.engine.queue.JobQueue` sits on, so the two
halves of a crash-resumable campaign (results and job lifecycle) speak
one database discipline and may even share one file.

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


#: A run payload's per-epoch fields, stored after its summary.
_HISTORY_FIELDS = ("epochs", "actions")

#: Summary field holding the CRC-32 of the row's compressed history.
_HISTORY_ZCRC = "history_zcrc"

#: Summary field of the older layout, whose history is plain text: the
#: CRC-32 of that text.
_HISTORY_CRC = "history_crc"

#: zlib level of a stored history: the fastest, which already shrinks
#: a run's history 7-12x (it is mostly repeated field names).
_ZLIB_LEVEL = 1

#: Field of a ``get(key, summary=True)`` payload holding the unparsed
#: history, a :class:`memoryview` of its stored zlib bytes.
HISTORY_ZLIB = "history"


def _compact(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":"))


def _encode_row(payload: dict) -> Union[str, bytes]:
    """The stored row of ``payload``: summary and compressed history
    for a run, one document for anything else."""
    if not all(field in payload for field in _HISTORY_FIELDS):
        return _compact(payload)
    summary = {name: value for name, value in payload.items()
               if name not in _HISTORY_FIELDS}
    history = zlib.compress(
        _compact({field: payload[field] for field in _HISTORY_FIELDS})
        .encode(), _ZLIB_LEVEL)
    summary[_HISTORY_ZCRC] = zlib.crc32(history)
    return _compact(summary).encode() + b"\n" + history


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

        With ``summary``, a run row's compressed history is checked
        against its CRC-32 but neither inflated nor parsed: the payload
        holds the summary's fields and, under :data:`HISTORY_ZLIB`, a
        :class:`memoryview` of the stored history.  Rows without a
        compressed history (mixes, and runs stored in either older
        layout) come back whole either way.

        The row is read once, as bytes; the summary is the only part
        copied out of it, so a lookup holds one row-sized buffer.

        A row whose summary or history is not valid JSON, whose history
        is not valid zlib, or whose history fails its CRC, is deleted
        and reported as a miss — partial writes from a killed process
        must never crash a later reader.  Database-level corruption discovered at read time
        (pages torn after the header was validated) is likewise a miss:
        the store is a cache, never a source of truth.
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
        split = raw.find(b"\n")
        try:
            payload = json.loads(raw if split < 0 else raw[:split])
            if not isinstance(payload, dict):
                raise ValueError("payload is not a JSON object")
            if split >= 0:
                history = memoryview(raw)[split + 1:]
                compressed = _HISTORY_ZCRC in payload
                crc = payload.pop(
                    _HISTORY_ZCRC if compressed else _HISTORY_CRC, None)
                if crc != zlib.crc32(history):
                    raise ValueError("history CRC mismatch")
                if not compressed:
                    payload.update(json.loads(str(history, "utf-8")))
                elif summary:
                    payload[HISTORY_ZLIB] = history
                else:
                    payload.update(load_history(history))
        except (ValueError, TypeError):
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
