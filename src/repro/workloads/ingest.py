"""External trace ingestion: pluggable adapters + ``trace://`` sources.

The synthetic generators cover the paper's behaviour classes, but the
evaluation space they stand in for — SPEC-like single-core traces,
datacenter captures, mixed multicore workloads — is ultimately defined
by *real* traces.  This module lets externally produced trace files flow
through the exact same machinery as the synthetic suite:

* an adapter protocol of two methods — ``peek_length(path)``, the
  file's instruction count, and ``iter_rows(path)``, its
  ``(pcs, addrs, flags)`` rows in order, in arrays of any size — with
  two concrete adapters: :class:`MemtraceAdapter` for a simple
  newline/CSV memtrace format and :class:`NpzAdapter` for the repo's
  own canonical ``.npz`` export (:mod:`repro.workloads.traceio`);
* :class:`ExternalTraceSpec`, a :class:`~repro.workloads.suites.WorkloadSpec`
  whose rows are the adapter's, replayed to the requested length (so
  ``build`` and ``stream`` serve every adapter alike), and
  whose *content identity* is the workload name plus the file's sha256,
  the adapter, and its parameters — the file's *directory path* is only
  a resolution hint and is excluded from every fingerprint, so moving a
  trace file keeps its cached traces and results valid.  The name
  defaults to the file stem; pin ``?name=...`` when a file may be
  *renamed*, since a new default name is a new workload identity;
* ``trace://path[?adapter=...&name=...&param=value]`` source strings
  accepted everywhere a workload name is
  (:func:`repro.workloads.suites.find_workload`, ``RunSpec.workload``,
  ``repro run`` / ``repro trace import``);
* :func:`import_trace`, the programmatic core of ``repro trace import``:
  resolve, parse, and materialize through the content-addressed
  :class:`~repro.workloads.tracecache.TraceCache` so a re-import of
  unchanged bytes is a cache hit, not a re-parse.

Adapters are first-class registry components (kind ``trace_adapter`` in
:mod:`repro.api.registry`); plugins add formats with
``@register_trace_adapter("myformat")`` without touching this file.
"""

from __future__ import annotations

import hashlib
import pathlib
import urllib.parse
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple, Union

import numpy as np

from .generators import Rows
from .suites import WorkloadSpec
from .trace import (
    FLAG_BRANCH,
    FLAG_DEP,
    FLAG_LOAD,
    FLAG_MISPRED,
    FLAG_STORE,
    Trace,
)
from .traceio import TraceFormatError, load_trace

PathLike = Union[str, pathlib.Path]

#: URI scheme marking an external trace source.
TRACE_SCHEME = "trace://"

#: spec params that identify the adapter/content, not adapter options.
_RESERVED_PARAMS = ("adapter", "sha256")


def _adapter_params(params: dict) -> dict:
    """The adapter's constructor options: a spec's params minus the
    reserved identity keys."""
    return {k: v for k, v in params.items() if k not in _RESERVED_PARAMS}


class TraceImportError(ValueError):
    """An external trace file could not be resolved, parsed, or verified."""


# ---------------------------------------------------------------------------
# content hashing
# ---------------------------------------------------------------------------

#: sha256 memo keyed by (realpath, mtime_ns, size): spec validation and
#: planning re-resolve sources repeatedly; hashing an unchanged file once
#: is enough.
_SHA_CACHE: Dict[Tuple[str, int, int], str] = {}


def file_sha256(path: PathLike) -> str:
    """sha256 hex digest of a file's bytes (memoized on mtime + size)."""
    path = pathlib.Path(path)
    try:
        stat = path.stat()
        cache_key = (str(path.resolve()), stat.st_mtime_ns, stat.st_size)
        cached = _SHA_CACHE.get(cache_key)
        if cached is not None:
            return cached
        h = hashlib.sha256()
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                h.update(block)
    except OSError as exc:
        raise TraceImportError(f"cannot read trace file {path}: {exc}") \
            from None
    digest = h.hexdigest()
    _SHA_CACHE[cache_key] = digest
    return digest


# ---------------------------------------------------------------------------
# adapters
# ---------------------------------------------------------------------------

#: instruction-type letters of the memtrace format -> flag bits.
_MEMTRACE_OPS = {
    "N": 0,
    "B": FLAG_BRANCH,
    "M": FLAG_BRANCH | FLAG_MISPRED,
    "L": FLAG_LOAD,
    "D": FLAG_LOAD | FLAG_DEP,
    "S": FLAG_STORE,
}

_MEM_OPS = ("L", "D", "S")


def _parse_int(text: str) -> int:
    return int(text, 0)  # accepts decimal and 0x... hex


def _row_arrays(pcs: list, addrs: list, flags: list) -> Rows:
    return (np.asarray(pcs, dtype=np.int64),
            np.asarray(addrs, dtype=np.int64),
            np.asarray(flags, dtype=np.uint8))


def _text_lines(path: pathlib.Path) -> Iterator[Tuple[int, str]]:
    """A memtrace file's ``(lineno, line)`` pairs, read incrementally:
    comments stripped, blank lines skipped."""
    try:
        handle = open(path, "r")
    except OSError as exc:
        raise TraceImportError(
            f"cannot read trace file {path}: {exc}"
        ) from None
    with handle:
        try:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if line:
                    yield lineno, line
        except OSError as exc:
            raise TraceImportError(
                f"cannot read trace file {path}: {exc}"
            ) from None
        except UnicodeDecodeError as exc:
            raise TraceImportError(
                f"{path}: not a text memtrace file ({exc}); "
                f"use the 'npz' adapter for binary archives"
            ) from None


class MemtraceAdapter:
    """Newline/CSV memtrace files: one instruction per line.

    Line format (comma- or whitespace-separated)::

        PC,OP[,ADDR]

    where ``OP`` is one of ``N`` (no memory access), ``B`` (branch),
    ``M`` (mispredicted branch), ``L`` (load), ``D`` (load whose address
    depends on the previous load's data), ``S`` (store).  ``ADDR`` is a
    byte address, required for ``L``/``D``/``S`` and forbidden
    otherwise.  ``PC``/``ADDR`` parse as decimal or ``0x...`` hex.
    Blank lines and ``#`` comments are skipped.

    ``delimiter`` fixes the field separator; the default ``""`` picks
    commas when the line contains one and whitespace otherwise.
    """

    name = "memtrace"
    suffixes = (".csv", ".memtrace", ".trace", ".txt")

    def __init__(self, delimiter: str = "") -> None:
        self.delimiter = delimiter

    def peek_length(self, path: PathLike) -> int:
        """Instruction count without parsing fields (one line each)."""
        return sum(1 for _ in _text_lines(pathlib.Path(path)))

    def _parse_line(self, path: pathlib.Path, lineno: int,
                    line: str) -> Tuple[int, int, int]:
        """Parse one non-blank line into a ``(pc, addr, flags)`` row."""
        delimiter = self.delimiter or ("," if "," in line else None)
        fields = [f.strip() for f in line.split(delimiter)]
        fields = [f for f in fields if f]
        if not 2 <= len(fields) <= 3:
            raise TraceImportError(
                f"{path}:{lineno}: expected PC,OP[,ADDR], got "
                f"{len(fields)} field(s) in {line!r}"
            )
        op = fields[1].upper()
        if op not in _MEMTRACE_OPS:
            raise TraceImportError(
                f"{path}:{lineno}: unknown op {fields[1]!r}; valid: "
                f"{'/'.join(sorted(_MEMTRACE_OPS))}"
            )
        try:
            pc = _parse_int(fields[0])
            addr = _parse_int(fields[2]) if len(fields) == 3 else 0
        except ValueError:
            raise TraceImportError(
                f"{path}:{lineno}: PC/ADDR must be decimal or 0x-hex "
                f"integers, got {line!r}"
            ) from None
        if op in _MEM_OPS and len(fields) != 3:
            raise TraceImportError(
                f"{path}:{lineno}: op {op!r} requires an ADDR field"
            )
        if op not in _MEM_OPS and len(fields) == 3:
            raise TraceImportError(
                f"{path}:{lineno}: op {op!r} takes no ADDR field"
            )
        return pc, addr, _MEMTRACE_OPS[op]

    def iter_rows(self, path: PathLike,
                  batch: int = 4096) -> Iterator[Rows]:
        """Parse incrementally: yield ``(pcs, addrs, flags)`` array
        triples of at most ``batch`` rows, holding O(batch) memory
        instead of the whole file."""
        path = pathlib.Path(path)
        pcs, addrs, flags = [], [], []
        empty = True
        for lineno, line in _text_lines(path):
            pc, addr, flag = self._parse_line(path, lineno, line)
            pcs.append(pc)
            addrs.append(addr)
            flags.append(flag)
            if len(pcs) >= batch:
                yield _row_arrays(pcs, addrs, flags)
                pcs, addrs, flags = [], [], []
                empty = False
        if pcs:
            yield _row_arrays(pcs, addrs, flags)
        elif empty:
            raise TraceImportError(f"{path}: empty memtrace (no instructions)")


class NpzAdapter:
    """The repo's own canonical ``.npz`` trace archive
    (:func:`repro.workloads.traceio.save_trace` output)."""

    name = "npz"
    suffixes = (".npz",)

    def peek_length(self, path: PathLike) -> int:
        """Instruction count from the archive header (arrays stay lazy)."""
        import json

        try:
            with np.load(path) as archive:
                header = json.loads(bytes(archive["header"]).decode("utf-8"))
            return int(header["num_instructions"])
        except Exception as exc:
            raise TraceImportError(
                f"{path}: not a trace archive ({exc})"
            ) from None

    def iter_rows(self, path: PathLike) -> Iterator[Rows]:
        """One triple covering the whole archive (``.npz`` members are
        compressed monoliths, so there is no cheaper unit to read)."""
        try:
            trace = load_trace(path)
        except TraceFormatError as exc:
            raise TraceImportError(str(exc)) from None
        yield trace.pcs, trace.addrs, trace.flags


def adapter_for_path(path: PathLike) -> str:
    """Pick an adapter name from the file suffix (memtrace fallback)."""
    from ..api.registry import registry

    suffix = pathlib.Path(path).suffix.lower()
    for component in registry.components("trace_adapter"):
        if suffix in getattr(component.factory, "suffixes", ()):
            return component.name
    return MemtraceAdapter.name


def make_adapter(name: str, params: Optional[dict] = None):
    """Instantiate a registered adapter, validating name and options."""
    from ..api.registry import registry

    if ("trace_adapter", name) not in registry:
        raise TraceImportError(
            f"unknown trace adapter {name!r}; valid: "
            f"{registry.names('trace_adapter')}"
        )
    try:
        return registry.get("trace_adapter", name).factory(**(params or {}))
    except TypeError as exc:
        raise TraceImportError(
            f"bad options for trace adapter {name!r}: {exc}"
        ) from None


# ---------------------------------------------------------------------------
# external workload specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExternalTraceSpec(WorkloadSpec):
    """A workload backed by an external trace file.

    Identity (``canonical_recipe()``, trace-cache fingerprints, engine
    content keys) comes from the inherited fields — ``name`` plus
    ``params`` carrying the adapter name, its options, and the file's
    sha256.  ``path`` is a *resolution hint only*: it tells
    :meth:`rows` where to read the bytes, it is re-verified against the
    recorded sha256 on every pass, and it never enters any hash — moving a
    trace file does not orphan its cached results.  (Renaming the file
    is different: the default ``name`` is the file stem, so a rename
    changes the identity unless the source pins ``?name=...``.)
    """

    path: str = ""

    def rows(self, length: int) -> Iterator[Rows]:
        """The file's rows, replayed back to back until exactly
        ``length`` instructions, the last batch cut.

        Mirrors the paper's methodology for short traces: "replayed as
        needed to ensure all cores reach the required number of
        simulated instructions".  The file is re-verified against the
        recorded sha256 before its first row is read.
        """
        if length <= 0:
            raise TraceImportError(
                f"trace length must be positive, got {length}")
        params, _ = _verify_content(self)
        adapter = make_adapter(params["adapter"], _adapter_params(params))
        emitted = 0
        while True:
            produced = 0
            for pcs, addrs, flags in adapter.iter_rows(self.path):
                produced += len(pcs)
                keep = min(len(pcs), length - emitted)
                emitted += keep
                yield pcs[:keep], addrs[:keep], flags[:keep]
                if emitted == length:
                    return
            if produced == 0:
                raise TraceImportError(
                    f"{self.path}: empty trace (no instructions)"
                )
            _NATIVE_LENGTHS.setdefault(self.params, produced)

    def metadata(self, length: int) -> dict:
        params, digest = _verify_content(self)
        return {
            "source": str(self.path),
            "sha256": digest,
            "adapter": params["adapter"],
            "native_length": _native_length(self),
        }


def _verify_content(spec: ExternalTraceSpec) -> Tuple[dict, str]:
    """Re-verify the file against the spec's recorded sha256; return the
    spec params dict and the digest."""
    params = dict(spec.params)
    recorded = params.get("sha256")
    digest = file_sha256(spec.path)
    if recorded != digest:
        raise TraceImportError(
            f"{spec.path}: content changed since import (sha256 "
            f"{digest[:12]}..., recorded {str(recorded)[:12]}...); "
            f"re-import to refresh the workload identity"
        )
    return params, digest


# ---------------------------------------------------------------------------
# trace:// sources
# ---------------------------------------------------------------------------

def is_trace_source(name: str) -> bool:
    """Whether a workload name is an external ``trace://`` source."""
    return isinstance(name, str) and name.startswith(TRACE_SCHEME)


def parse_trace_source(source: str) -> Tuple[str, Optional[str],
                                             Optional[str], dict]:
    """Split ``trace://path?adapter=..&name=..&opt=v`` into its parts.

    Returns ``(path, name, adapter, adapter_params)``; query values are
    coerced like CLI ``KEY=VALUE`` options (``delimiter=","`` stays a
    string, numbers become numbers).
    """
    from ..api.params import coerce_value

    if not is_trace_source(source):
        raise TraceImportError(
            f"not a trace:// source: {source!r}"
        )
    rest = source[len(TRACE_SCHEME):]
    raw_path, _, query = rest.partition("?")
    if not raw_path:
        raise TraceImportError(f"{source!r}: missing file path")
    name = None
    adapter = None
    params: dict = {}
    for key, value in urllib.parse.parse_qsl(query, keep_blank_values=True):
        if key == "name":
            name = value
        elif key == "adapter":
            adapter = value
        else:
            params[key] = coerce_value(value)
    return urllib.parse.unquote(raw_path), name, adapter, params


def trace_source(path: PathLike, name: Optional[str] = None,
                 adapter: Optional[str] = None,
                 params: Optional[dict] = None) -> str:
    """The canonical ``trace://`` source string for a file.

    The inverse of :func:`parse_trace_source`; ``repro trace import``
    prints this so the exact workload reference can be pasted into spec
    files and CLI commands.  Path characters that would confuse the URI
    form (``%``, ``?``, spaces) are percent-encoded — and decoded again
    by :func:`parse_trace_source` — so the reference round-trips for
    any filename.
    """
    query = []
    if name:
        query.append(("name", name))
    if adapter:
        query.append(("adapter", adapter))
    for key, value in sorted((params or {}).items()):
        query.append((key, str(value)))
    suffix = f"?{urllib.parse.urlencode(query)}" if query else ""
    quoted = urllib.parse.quote(str(path), safe="/:.~-_")
    return f"{TRACE_SCHEME}{quoted}{suffix}"


def resolve_trace_source(
    source: str,
    name: Optional[str] = None,
    adapter: Optional[str] = None,
    params: Optional[dict] = None,
) -> ExternalTraceSpec:
    """Resolve a ``trace://`` source (or bare path) to a workload spec.

    Reads the file's sha256 (the content identity), picks the adapter
    from the suffix unless one is named, and validates the adapter
    options by instantiating the adapter once.  Explicit keyword
    arguments override the source string's query parts.
    """
    if is_trace_source(source):
        path, uri_name, uri_adapter, uri_params = parse_trace_source(source)
        name = name or uri_name
        adapter = adapter or uri_adapter
        merged = dict(uri_params)
        merged.update(params or {})
        params = merged
    else:
        path = str(source)
    if not pathlib.Path(path).is_file():
        raise TraceImportError(f"trace file not found: {path}")
    adapter_name = adapter or adapter_for_path(path)
    params = params or {}
    make_adapter(adapter_name, params)  # eager option validation
    digest = file_sha256(path)
    spec_name = name or pathlib.Path(path).stem
    identity = sorted(
        [("adapter", adapter_name), ("sha256", digest)]
        + list(params.items())
    )
    return ExternalTraceSpec(
        name=spec_name,
        suite="external",
        pattern="external",
        seed=0,
        params=tuple(identity),
        path=path,
    )


# ---------------------------------------------------------------------------
# import (the `repro trace import` core)
# ---------------------------------------------------------------------------

@dataclass
class TraceImport:
    """Outcome of one :func:`import_trace` call."""

    spec: ExternalTraceSpec
    trace: Trace
    native_length: int
    fingerprint: str
    #: True when the trace came out of the cache (re-import of
    #: unchanged bytes) instead of being parsed again.
    cached: bool

    @property
    def source(self) -> str:
        """The ``trace://`` reference to use in specs and CLI commands."""
        params = _adapter_params(dict(self.spec.params))
        name = self.spec.name
        default_name = pathlib.Path(self.spec.path).stem
        return trace_source(
            self.spec.path,
            name=None if name == default_name else name,
            adapter=dict(self.spec.params)["adapter"],
            params=params,
        )


#: native instruction counts memoized by content identity (the spec's
#: params: sha256 + adapter + options), so a re-import of unchanged
#: bytes skips even the line-counting scan.
_NATIVE_LENGTHS: Dict[Tuple[Tuple[str, object], ...], int] = {}


def _native_length(spec: ExternalTraceSpec) -> int:
    length = _NATIVE_LENGTHS.get(spec.params)
    if length is None:
        spec_params = dict(spec.params)
        adapter_obj = make_adapter(spec_params["adapter"],
                                   _adapter_params(spec_params))
        length = adapter_obj.peek_length(spec.path)
        _NATIVE_LENGTHS[spec.params] = length
    return length


def import_trace(
    source: str,
    name: Optional[str] = None,
    adapter: Optional[str] = None,
    params: Optional[dict] = None,
) -> TraceImport:
    """Import an external trace through the content-addressed cache.

    Resolves ``source`` (a path or ``trace://`` string) to an
    :class:`ExternalTraceSpec` and materializes it at its *native*
    length via the process-wide trace cache — so the imported trace
    lands in the in-memory LRU and (with ``REPRO_TRACE_DIR`` set) the
    shared on-disk tier, and re-importing unchanged bytes re-parses
    nothing: the content hash is re-verified (one sequential read, or
    no read at all when the file's mtime/size are unchanged) and the
    trace itself comes from the cache.
    """
    from .tracecache import fingerprint, trace_cache

    spec = resolve_trace_source(source, name=name, adapter=adapter,
                                params=params)
    native_length = _native_length(spec)
    if native_length <= 0:
        raise TraceImportError(f"{spec.path}: empty trace (no instructions)")
    cache = trace_cache()
    builds_before = cache.stats.builds
    trace = cache.get_or_build(spec, native_length)
    return TraceImport(
        spec=spec,
        trace=trace,
        native_length=native_length,
        fingerprint=fingerprint(spec, native_length),
        cached=cache.stats.builds == builds_before,
    )


def describe_trace(trace: Trace) -> str:
    """Human-readable stats block shared by ``repro trace import|inspect``."""
    n = max(1, len(trace))
    lines = [
        f"instructions:     {len(trace)}",
        f"loads:            {trace.num_loads}"
        f" ({100.0 * trace.num_loads / n:.1f}%)",
        f"stores:           {trace.num_stores}"
        f" ({100.0 * trace.num_stores / n:.1f}%)",
        f"branches:         {trace.num_branches}"
        f" (mispredicted {trace.num_mispredicted_branches})",
        f"memory intensity: {trace.memory_intensity():.3f}",
        f"footprint:        {trace.footprint_lines()} cachelines"
        f" ({trace.footprint_lines() * 64 // 1024} KiB)",
        f"distinct PCs:     {int(np.unique(trace.pcs).size)}",
    ]
    return "\n".join(lines)
