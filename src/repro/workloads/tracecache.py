"""Process-wide, content-addressed compiled-trace cache.

Every simulation starts by materializing its workload trace, and a
figure campaign asks for the same few hundred ``(spec, length)`` pairs
over and over — across figures, policies, seeds, and engine workers.
This module gives :func:`repro.workloads.suites.build_trace` a single
cached entry point:

* an in-memory LRU keyed by the *content fingerprint* of the build
  recipe — workload name/suite/pattern/seed/params plus the trace
  length and the cache schema version — bounded by a byte budget
  (``REPRO_TRACE_CACHE_MB``, default 256);
* an optional on-disk ``.npz`` tier (:mod:`repro.workloads.traceio`)
  shared across processes and runs: set ``REPRO_TRACE_DIR`` (or pass
  ``disk_dir``) and engine workers load traces instead of regenerating
  them.  Corrupt or stale files are rebuilt and overwritten, never
  trusted.

The fingerprint is a sha256 over the canonical recipe, so two specs
that would generate different instruction streams can never collide,
and a change to :data:`TRACE_SCHEMA` (bump it when generator output
changes *deliberately*) orphans every stale entry at once.

Cached traces are shared objects: treat them as immutable (the
simulators already do; use :meth:`~repro.workloads.trace.Trace.slice`
for derived copies).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from ..obs.spans import span
from .streaming import TraceBlock, TraceStream, blocks_from_trace

if TYPE_CHECKING:  # imported where a trace is built or read
    from .trace import Trace

#: bump when generator behaviour changes deliberately (new golden trace
#: hashes): every fingerprint changes, orphaning stale disk entries.
TRACE_SCHEMA = 1

_DEFAULT_BUDGET_MB = 256.0


@dataclass
class TraceCacheStats:
    """Hit/build accounting for one cache lifetime."""

    hits: int = 0          # served from the in-memory LRU
    disk_hits: int = 0     # loaded from the on-disk store
    builds: int = 0        # generated from the spec
    evictions: int = 0
    chunk_hits: int = 0    # always 0: the per-chunk tier was removed;
                           # kept for readers of the stats snapshot

    @property
    def misses(self) -> int:
        return self.disk_hits + self.builds

    def to_dict(self) -> dict:
        """Machine-readable snapshot (metric exports, journal events)."""
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "builds": self.builds,
            "evictions": self.evictions,
            "chunk_hits": self.chunk_hits,
        }


def fingerprint(spec, length: int) -> str:
    """Content hash of one compiled-trace recipe.

    The identity fields come from
    :meth:`~repro.workloads.suites.WorkloadSpec.canonical_recipe` —
    the same recipe the engine hashes into its result keys — so for an
    external trace the fingerprint covers the file's sha256 and
    adapter parameters but never its path.
    """
    recipe = {
        "schema": TRACE_SCHEMA,
        "length": length,
        **spec.canonical_recipe(),
    }
    blob = json.dumps(recipe, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TraceCache:
    """Byte-bounded LRU of built traces with an optional disk tier."""

    def __init__(
        self,
        max_bytes: Optional[int] = None,
        disk_dir: Optional[os.PathLike] = None,
    ) -> None:
        if max_bytes is None:
            budget_mb = float(
                os.environ.get("REPRO_TRACE_CACHE_MB", _DEFAULT_BUDGET_MB)
            )
            max_bytes = int(budget_mb * 1024 * 1024)
        self.max_bytes = max_bytes
        if disk_dir is None:
            disk_dir = os.environ.get("REPRO_TRACE_DIR") or None
        self.disk_dir = pathlib.Path(disk_dir) if disk_dir else None
        self.stats = TraceCacheStats()
        self._entries: "OrderedDict[str, Trace]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    # -- sizing -------------------------------------------------------------

    @staticmethod
    def _trace_bytes(trace: Trace) -> int:
        return (trace.pcs.nbytes + trace.addrs.nbytes + trace.flags.nbytes)

    def _insert(self, key: str, trace: Trace) -> None:
        displaced = self._entries.get(key)
        if displaced is not None:  # racing builders: replace, don't leak
            self._bytes -= self._trace_bytes(displaced)
        self._entries[key] = trace
        self._bytes += self._trace_bytes(trace)
        while self._bytes > self.max_bytes and len(self._entries) > 1:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= self._trace_bytes(evicted)
            self.stats.evictions += 1

    # -- disk tier ----------------------------------------------------------

    def _disk_path(self, key: str) -> Optional[pathlib.Path]:
        return self.disk_dir / key if self.disk_dir else None

    def _load_from_disk(self, key: str, length: int) -> Optional[Trace]:
        path = self._disk_path(key)
        if path is None:
            return None
        real = path.with_name(path.name + ".npz")
        if not real.exists():
            return None
        from .traceio import TraceFormatError, load_trace

        try:
            trace = load_trace(real)
        except TraceFormatError:
            return None
        if len(trace) != length:  # stale/corrupt: rebuild and overwrite
            return None
        return trace

    def _store_to_disk(self, key: str, trace: Trace) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        from .traceio import save_trace

        try:
            save_trace(trace, path)
        except OSError:  # a full/read-only disk never fails the build
            pass

    # -- the single entry point --------------------------------------------

    def get_or_build(self, spec, length: int) -> Trace:
        """The compiled trace for ``(spec, length)``, cheapest tier first."""
        key = fingerprint(spec, length)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return cached
        trace = self._load_from_disk(key, length)
        if trace is not None:
            with self._lock:
                self.stats.disk_hits += 1
                self._insert(key, trace)
            return trace
        # Only a genuine generator run is a trace_build span: cache and
        # disk hits above are (near-)free, and a warm run must show zero
        # of these in its journal.
        with span("trace_build", workload=getattr(spec, "name", "?"),
                  length=length):
            trace = spec.build(length)
        self._store_to_disk(key, trace)
        with self._lock:
            self.stats.builds += 1
            self._insert(key, trace)
        return trace

    # -- streamed traces ----------------------------------------------------

    @staticmethod
    def _stream_from_trace(trace: Trace, block_size: int) -> TraceStream:
        """Re-block a whole-trace tier hit (views of the cached arrays)."""
        return TraceStream(
            name=trace.name,
            suite=trace.suite,
            length=len(trace),
            block_size=block_size,
            factory=lambda: blocks_from_trace(trace, block_size),
            seek=lambda start: blocks_from_trace(trace, block_size, start),
            metadata=dict(trace.metadata),
        )

    def stream(self, spec, length: int, block_size: int) -> TraceStream:
        """The trace for ``(spec, length)`` as a block stream.

        Resolution order: a whole trace in the in-memory LRU, then one
        in the on-disk ``.npz`` tier, is re-blocked (views, no copy);
        otherwise the trace is emitted cold — a genuine ``trace_build``.
        A cold stream persists nothing: every traversal (including an
        ``iter_from`` that must skip a prefix) re-emits from the start,
        which the vectorized emitters make as cheap as reading stored
        blocks back.  The cold tier holds one generator sub-batch plus
        the block being assembled; no tier materializes the trace.
        """
        key = fingerprint(spec, length)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
        if cached is not None:
            return self._stream_from_trace(cached, block_size)
        whole = self._load_from_disk(key, length)
        if whole is not None:
            with self._lock:
                self.stats.disk_hits += 1
                self._insert(key, whole)
            return self._stream_from_trace(whole, block_size)
        return self._stream_cold(spec, length, block_size)

    def _stream_cold(self, spec, length: int, block_size: int) -> TraceStream:
        """Cold tier: emit blocks live, counting each traversal a build."""
        raw = spec.stream(length, block_size)

        def emit() -> Iterator[TraceBlock]:
            with self._lock:
                self.stats.builds += 1
            with span("trace_build", workload=getattr(spec, "name", "?"),
                      length=length):
                yield from raw
            # Traversal finished: the emitter's overshoot rename (if
            # any) has landed on ``raw.name``.
            stream.name = raw.name

        stream = TraceStream(
            name=raw.name,
            suite=raw.suite,
            length=length,
            block_size=block_size,
            factory=emit,
            metadata=dict(raw.metadata),
        )
        return stream

    def clear(self, disk: bool = False) -> None:
        """Drop the in-memory tier (and the disk store with ``disk=True``)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
        if disk and self.disk_dir is not None and self.disk_dir.exists():
            for entry in self.disk_dir.glob("*.npz"):
                try:
                    entry.unlink()
                except OSError:
                    pass

    def __len__(self) -> int:
        return len(self._entries)


_CACHE: Optional[TraceCache] = None
_CACHE_LOCK = threading.Lock()


def trace_cache() -> TraceCache:
    """The process-wide cache (created lazily from the environment)."""
    global _CACHE
    if _CACHE is None:
        with _CACHE_LOCK:
            if _CACHE is None:
                _CACHE = TraceCache()
    return _CACHE


def reset_trace_cache(cache: Optional[TraceCache] = None) -> TraceCache:
    """Replace the process-wide cache (tests; env-var changes)."""
    global _CACHE
    with _CACHE_LOCK:
        _CACHE = cache if cache is not None else TraceCache()
    return _CACHE
