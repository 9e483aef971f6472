"""In-memory span tracer installed from outside the program.

The traced run wraps class methods of the simulator, engine and workload
layers *before any hierarchy is built*: ``CacheHierarchy.__init__`` binds
``Cache.lookup_slot`` and ``MainMemory.access_time`` once, so a wrapper
installed later would never be called.  ``CacheHierarchy.load`` inlines
the L1-LRU lookup, so L1 lookups are not seen by ``sim.cache_lookup``;
the modelled L1D hit/miss counters account for them instead.

Every span keeps its parent on a stack, so a layer's self time is its
duration minus the time of the spans it contains.  Fine-grained spans
(millions per pass) are aggregated per name on the fly; coarse spans
(request, simulator run, trace build, store write) are also kept as
individual records, with the content key of the request they belong
to, and written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional

#: spans kept as individual records (one per request or coarser).
RECORDED = frozenset({
    "engine.request_execute", "sim.simulator_run", "sim.multicore_run",
    "workloads.trace_build", "engine.store_put",
})


class Tracer:
    """Span stack plus per-name aggregates ``[calls, s, self_s, depth]``."""

    def __init__(self) -> None:
        self._stats: Dict[str, List[float]] = {}
        #: one frame per open span: [time spent in child spans]
        self._stack: List[List[float]] = [[0.0]]
        #: open recorded spans, innermost last
        self._open: List[dict] = []
        self.records: List[dict] = []
        #: distinct trace recipes requested from the trace cache
        self.trace_keys: set = set()
        self._next_id = 0
        self._label: Optional[str] = None

    # -- wrapping --------------------------------------------------------------

    def wrap(self, fn: Callable, name: str,
             request_of: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``.

        ``s`` counts only the outermost of nested same-name spans, so a
        recursive layer (a planner calling a planner) is not counted twice.
        """
        entry = self._stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        recorded = name in RECORDED

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            entry[3] += 1
            record = self._open_record(name, args, request_of) \
                if recorded else None
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                entry[0] += 1
                entry[2] += elapsed - frame[0]
                entry[3] -= 1
                if not entry[3]:
                    entry[1] += elapsed
                if record is not None:
                    record["s"] = elapsed
                    self._open.pop()

        return functools.update_wrapper(traced, fn)

    def _open_record(self, name: str, args, request_of) -> dict:
        parent = self._open[-1] if self._open else None
        self._next_id += 1
        if request_of is not None:
            request = request_of(*args)
        else:
            request = parent["request"] if parent is not None else None
        record = {
            "pass": self._label,
            "id": self._next_id,
            "parent": parent["id"] if parent is not None else None,
            "name": name,
            "request": request,
            "start": time.perf_counter(),
            "s": None,
        }
        self.records.append(record)
        self._open.append(record)
        return record

    # -- sessions ----------------------------------------------------------

    def run(self, label: str, fn: Callable):
        """Run ``fn()`` as one traced pass; returns (value, profile).

        The profile maps each span name to ``{"calls", "s", "self_s"}``
        and holds the pass's ``wall_s`` and ``unattributed_s``: the time
        no span covers, so the self times and it sum to the wall time.
        """
        for entry in self._stats.values():
            entry[:] = [0, 0.0, 0.0, 0]
        root = [0.0]
        self._stack[:] = [root]
        self._open.clear()
        self.trace_keys.clear()
        self._label = label
        start = time.perf_counter()
        value = fn()
        wall = time.perf_counter() - start
        layers = {
            name: {"calls": int(e[0]), "s": e[1], "self_s": e[2]}
            for name, e in self._stats.items()
        }
        return value, {
            "wall_s": wall,
            "unattributed_s": wall - root[0],
            "layers": layers,
        }


def _short_policy_name(cls) -> str:
    name = cls.__name__.lower()
    return name[:-len("policy")] if name.endswith("policy") else name


def _subclasses(base) -> List[type]:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


def _patch(tracer: Tracer, cls, method: str, name: str, **kw) -> None:
    setattr(cls, method, tracer.wrap(cls.__dict__[method], name, **kw))


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point in place, once per process."""
    from repro.core.agent import AthenaAgent
    from repro.engine import api as engine_api
    from repro.engine.jobs import MixRequest, RunRequest
    from repro.engine.store import ResultStore
    from repro.experiments.runner import ExperimentContext
    # The packages' __init__ import every concrete subclass walked below.
    from repro.ocp.base import OffChipPredictor
    from repro.policies.base import CoordinationPolicy
    from repro.prefetchers.base import Prefetcher
    from repro.sim.cache import Cache
    from repro.sim.cpu import CoreModel
    from repro.sim.dram import MainMemory
    from repro.sim.hierarchy import CacheHierarchy
    from repro.sim.multicore import MultiCoreSimulator
    from repro.sim.simulator import Simulator
    from repro.workloads.streaming import TraceStream
    from repro.workloads.tracecache import TraceCache, fingerprint

    for method in ("plan_run", "plan_speedup", "plan_classify",
                   "plan_static_best", "plan_mix"):
        _patch(tracer, ExperimentContext, method, "experiments.plan")
    for cls in (RunRequest, MixRequest):
        _patch(tracer, cls, "execute", "engine.request_execute",
               request_of=lambda request: request.key())
    _patch(tracer, ResultStore, "put", "engine.store_put")
    _patch(tracer, ResultStore, "get", "engine.store_get")
    engine_api.decode_result = tracer.wrap(engine_api.decode_result,
                                           "engine.decode")

    def note_trace(fn):
        def noted(self, spec, length, *rest):
            tracer.trace_keys.add(fingerprint(spec, length))
            return fn(self, spec, length, *rest)
        return functools.update_wrapper(noted, fn)

    for method in ("get_or_build", "stream"):
        fn = note_trace(TraceCache.__dict__[method])
        setattr(TraceCache, method, tracer.wrap(fn, "workloads.trace_build"))
    # The time a simulator waits for its next TraceBlock.
    stream_iter = TraceStream.__iter__
    next_block = tracer.wrap(next, "workloads.stream.block_wait")

    def timed_blocks(stream):
        blocks = stream_iter(stream)
        try:
            while True:
                try:
                    yield next_block(blocks)
                except StopIteration:
                    return
        finally:
            close = getattr(blocks, "close", None)
            if close is not None:  # stops a cold stream's producer thread
                close()

    TraceStream.__iter__ = timed_blocks

    _patch(tracer, Simulator, "run", "sim.simulator_run")
    _patch(tracer, MultiCoreSimulator, "run", "sim.multicore_run")
    _patch(tracer, CacheHierarchy, "load", "sim.hierarchy_load")
    _patch(tracer, CacheHierarchy, "store", "sim.hierarchy_store")
    _patch(tracer, Cache, "lookup_slot", "sim.cache_lookup")
    _patch(tracer, Cache, "fill_fast", "sim.cache_fill")
    _patch(tracer, MainMemory, "access_time", "sim.dram_access")
    _patch(tracer, CoreModel, "run_simple", "sim.core_run_simple")
    _patch(tracer, AthenaAgent, "end_epoch", "core.agent_end_epoch")

    for cls in _subclasses(Prefetcher):
        if "observe" in cls.__dict__:
            _patch(tracer, cls, "observe", "prefetchers.observe")
    for cls in _subclasses(OffChipPredictor):
        for method in ("predict", "train"):
            if method in cls.__dict__:
                _patch(tracer, cls, method, f"ocp.{method}")
    for cls in _subclasses(CoordinationPolicy):
        if "decide" in cls.__dict__:
            _patch(tracer, cls, "decide",
                   f"policies.decide.{_short_policy_name(cls)}")
