"""Simulation requests and their content-addressed identity.

A *request* captures everything needed to reproduce one simulation —
workload spec, trace length, cache-design signature, coordination policy
(and its full configuration), epoch length and warm-up fraction — and
canonicalizes it into a stable content-hash key.  Two requests with the
same key are guaranteed to produce bit-identical results (every generator
and policy in this repo is deterministically seeded), so the key doubles
as the address in the persistent result store and as the deduplication
handle for in-flight work.

Requests are plain frozen dataclasses: picklable (they cross the process
boundary to pool workers) and executable anywhere via :meth:`execute`.
Keys and codecs need no simulator: the simulator, the policies and the
memory model are imported where a request executes
(:data:`EXECUTION_MODULES`), so planning and warm replay never load them.

Athena requests that differ only in the agent seed share a *group key*
(:func:`group_key`); :func:`execute_group` runs such requests as one
lockstep simulation that forks only where their agents disagree, and
:meth:`RunRequest.execute` is a group of one.

The module also holds the JSON codecs that serialize
:class:`~repro.sim.region.SimulationResult` /
:class:`~repro.sim.region.MultiCoreResult` for the store.  JSON floats
round-trip exactly (``repr`` semantics), so a decoded result reproduces
the original tables byte for byte.  An executed payload decodes at once
into plain results.  A result decoded from a warm lookup defers what
its stored row keeps apart from the head: its counters are parsed,
checked and built on the first read of a core's ``stats``, and a run's
per-epoch history is inflated, parsed and built on the first read of
its epochs or actions.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.config import AthenaConfig, RewardWeights
from ..obs.spans import span
from ..sim.region import MultiCoreResult, SimulationResult
from ..sim.stats import CoordinationAction, EpochTelemetry, SimStats
from ..workloads.suites import WorkloadSpec, build_trace, stream_trace
from .store import COUNTERS, HISTORY_ZLIB, StoreDecodeError, load_history

#: bump when the simulator's observable behaviour or the payload layout
#: changes: it is mixed into every request key, so old store entries
#: become unreachable (and are recomputed) instead of serving stale data.
ENGINE_SCHEMA = 2

#: what executing a request imports beyond this module: the simulators
#: (and with them the memory model and the trace substrate), every
#: policy, prefetcher and OCP, the component registry that builds them,
#: and the trace generators and trace files a cold trace needs.
EXECUTION_MODULES = (
    "repro.sim.simulator", "repro.sim.multicore", "repro.policies",
    "repro.prefetchers", "repro.ocp", "repro.api.registry",
    "repro.workloads.generators", "repro.workloads.traceio",
)


def load_execution_modules() -> None:
    """Import :data:`EXECUTION_MODULES`.  A worker pool calls this before
    it starts its workers, so forked workers inherit the modules instead
    of each importing them again."""
    for name in EXECUTION_MODULES:
        importlib.import_module(name)


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------

def _canonical_spec(spec: WorkloadSpec) -> dict:
    # One identity for both cache layers: the same canonical recipe the
    # trace cache fingerprints (for an external trace that is the file's
    # sha256 + adapter params — the path is a resolution hint and stays
    # out of the key, so results survive the file moving).
    return spec.canonical_recipe()


def _canonical_design(design) -> dict:
    # Mirrors CacheDesign.signature(): the display name is cosmetic and
    # must not split the cache (e.g. "CD1-static-0-popet" == "CD1-ocp-only").
    return {
        "prefetchers": list(design.prefetcher_names),
        "ocp": design.ocp_name,
        "bandwidth_gbps": design.bandwidth_gbps,
        "ocp_issue_latency": design.ocp_issue_latency,
    }


def _canonical_config(config: Optional[AthenaConfig]) -> Optional[dict]:
    if config is None:
        return None
    out = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, RewardWeights):
            value = {w.name: getattr(value, w.name) for w in fields(value)}
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


# ---------------------------------------------------------------------------
# execution-time streaming gate
# ---------------------------------------------------------------------------

def _stream_block_size() -> Optional[int]:
    """Block size for streamed trace execution, or ``None`` (materialize).

    Read from ``REPRO_STREAM_BLOCK`` at :meth:`execute` time only — never
    during canonicalization — so the gate can never leak into request
    keys: streamed and materialized execution produce bit-identical
    results and share one store entry.
    """
    raw = os.environ.get("REPRO_STREAM_BLOCK", "").strip()
    if not raw:
        return None
    try:
        block = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_STREAM_BLOCK must be an integer, got {raw!r}"
        ) from None
    return block if block > 0 else None


def _trace_for(spec: WorkloadSpec, length: int):
    """The trace a request executes against: a :class:`TraceStream`
    through the trace cache's stream tiers when streaming is enabled,
    else the materialized :class:`Trace`."""
    block = _stream_block_size()
    if block is not None:
        return stream_trace(spec, length, block)
    return build_trace(spec, length)


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _memoized_key(request) -> str:
    """Compute (once) and cache a frozen request's content key.

    Requests are immutable, and callers — planner, engine tiers, result
    wrappers — each ask for the key; memoizing on the instance turns
    the repeated canonicalize+sha256 passes into one.
    """
    key = request.__dict__.get("_key")
    if key is None:
        key = _digest(request.canonical())
        object.__setattr__(request, "_key", key)
    return key


def _reject_athena_options(request) -> None:
    """Athena options must travel as ``athena_config``.

    ``policy_options`` is hashed into the content key, so accepting it
    for athena while execution reads only ``athena_config`` would cache
    results under option labels that were never applied.  Refuse at
    request construction instead.
    """
    if request.policy_name == "athena" and request.policy_options:
        raise ValueError(
            "athena requests carry their configuration in athena_config; "
            f"policy_options {dict(request.policy_options)} would be "
            "ignored at execution"
        )


def _build_policy(
    policy_name: str,
    athena_config: Optional[AthenaConfig],
    policy_options: Tuple[Tuple[str, object], ...] = (),
):
    if policy_name == "athena" and athena_config is not None:
        from ..policies.athena import AthenaPolicy

        return AthenaPolicy(athena_config)
    from ..policies import make_policy

    return make_policy(policy_name, **dict(policy_options))


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunRequest:
    """One single-core simulation, content-addressed.

    ``design`` is a :class:`~repro.experiments.configs.CacheDesign`; it is
    typed loosely to keep this module below the experiments layer.
    """

    spec: WorkloadSpec
    trace_length: int
    design: object
    policy_name: str = "none"
    athena_config: Optional[AthenaConfig] = None
    epoch_length: int = 250
    warmup_fraction: float = 0.2
    #: constructor options for non-athena policies (athena carries its
    #: full configuration in ``athena_config`` instead), as a sorted
    #: tuple of pairs so the request stays hashable/picklable.
    policy_options: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        _reject_athena_options(self)

    def _effective_config(self) -> Optional[AthenaConfig]:
        """The configuration the run actually uses.

        ``athena`` with no explicit config runs the default
        :class:`AthenaConfig`, so both spellings must share one key.
        Non-athena policies carry no config at all.
        """
        if self.policy_name != "athena":
            return None
        return self.athena_config if self.athena_config is not None \
            else AthenaConfig()

    def canonical(self) -> dict:
        """JSON-able canonical form; hashed by :meth:`key`."""
        out = {
            "schema": ENGINE_SCHEMA,
            "kind": "run",
            "workload": _canonical_spec(self.spec),
            "trace_length": self.trace_length,
            "design": _canonical_design(self.design),
            "policy": self.policy_name,
            "config": _canonical_config(self._effective_config()),
            "epoch_length": self.epoch_length,
            "warmup_fraction": self.warmup_fraction,
        }
        # Included only when set so option-free requests keep the keys
        # they had before this field existed (warm stores stay warm).
        if self.policy_options:
            out["policy_options"] = [
                [k, v] for k, v in sorted(self.policy_options)
            ]
        return out

    def key(self) -> str:
        """Stable content-hash identity (sha256 hex), memoized."""
        return _memoized_key(self)

    def execute(self) -> SimulationResult:
        """Run the simulation described by this request."""
        return execute_group((self,))[0]


@dataclass(frozen=True)
class MixRequest:
    """One multi-core mix simulation, content-addressed."""

    workloads: Tuple[WorkloadSpec, ...]
    trace_length: int
    design: object
    policy_name: str = "none"
    epoch_length: int = 250
    warmup_fraction: float = 0.0
    policy_options: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        _reject_athena_options(self)

    def canonical(self) -> dict:
        out = {
            "schema": ENGINE_SCHEMA,
            "kind": "mix",
            "workloads": [_canonical_spec(s) for s in self.workloads],
            "trace_length": self.trace_length,
            "design": _canonical_design(self.design),
            "policy": self.policy_name,
            "epoch_length": self.epoch_length,
            "warmup_fraction": self.warmup_fraction,
        }
        if self.policy_options:
            out["policy_options"] = [
                [k, v] for k, v in sorted(self.policy_options)
            ]
        return out

    def key(self) -> str:
        return _memoized_key(self)

    def execute(self) -> MultiCoreResult:
        from ..experiments.configs import build_hierarchy, system_for
        from ..sim.multicore import MultiCoreSimulator

        params = system_for(self.design)
        traces = [_trace_for(s, self.trace_length) for s in self.workloads]
        design = self.design
        sim = MultiCoreSimulator(
            traces=traces,
            params=params,
            hierarchy_factory=lambda p, llc, dram: build_hierarchy(
                design, params=p, llc=llc, dram=dram
            ),
            policy_factory=lambda: _build_policy(
                self.policy_name, None, self.policy_options
            ),
            instructions_per_core=self.trace_length,
            epoch_length=self.epoch_length,
            warmup_fraction=self.warmup_fraction,
        )
        with span("simulate", policy=self.policy_name,
                  cores=len(self.workloads)):
            return sim.run()


Request = Union[RunRequest, MixRequest]
Result = Union[SimulationResult, MultiCoreResult]


# ---------------------------------------------------------------------------
# lockstep groups
# ---------------------------------------------------------------------------

def group_key(request: Request) -> Optional[str]:
    """The key Athena runs differing only in the agent seed share.

    It is :meth:`RunRequest.canonical` without ``config.seed``, hashed,
    and memoized like :meth:`RunRequest.key`.  Other policies and mixes
    have none: different policies on one design part at the first
    decision, so running them in lockstep would only add fork copies.
    """
    if not isinstance(request, RunRequest) or \
            request.policy_name != "athena":
        return None
    group = request.__dict__.get("_group")
    if group is None:
        canonical = request.canonical()
        canonical["config"] = {name: value for name, value
                               in canonical["config"].items()
                               if name != "seed"}
        group = _digest(canonical)
        object.__setattr__(request, "_group", group)
    return group


def lockstep_groups(keyed: Sequence[Tuple[str, Request]]) -> Dict[str, str]:
    """``{member key: leader key}`` for every group key that two or more
    distinct keys among the ``(key, request)`` pairs share; the leader
    is the first member."""
    members: Dict[str, Dict[str, None]] = {}
    for key, request in keyed:
        group = group_key(request)
        if group is not None:
            members.setdefault(group, {})[key] = None
    return {key: next(iter(keys)) for keys in members.values()
            if len(keys) > 1 for key in keys}


def execute_group(requests: Sequence[RunRequest]) -> List[SimulationResult]:
    """Run requests sharing a :func:`group_key` (or one request) as one
    lockstep simulation; one result per request, each bit-identical to
    running that request alone."""
    from ..experiments.configs import build_hierarchy
    from ..sim.simulator import Simulator

    leader = requests[0]
    trace = _trace_for(leader.spec, leader.trace_length)
    hierarchy = build_hierarchy(leader.design)
    policies = [_build_policy(request.policy_name, request.athena_config,
                              request.policy_options)
                for request in requests]
    with span("simulate", workload=leader.spec.name,
              policy=leader.policy_name):
        sim = Simulator(
            trace,
            hierarchy,
            epoch_length=leader.epoch_length,
            warmup_fraction=leader.warmup_fraction,
            riders=[policy for policy in policies if policy is not None],
        )
        sim.run()
    return sim.results


# ---------------------------------------------------------------------------
# result codecs
# ---------------------------------------------------------------------------

def _dataclass_dict(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _core_payload(core: SimulationResult) -> dict:
    """A core's totals: all of a mix core's payload, and the head of a
    run's."""
    return {"workload": core.workload, "instructions": core.instructions,
            "cycles": core.cycles, "stats": _dataclass_dict(core.stats)}


def _epochs_from(rows: list) -> List[EpochTelemetry]:
    return [EpochTelemetry(**epoch) for epoch in rows]


def _action_values(action: dict) -> tuple:
    return (tuple(action["prefetchers_enabled"]), action["ocp_enabled"],
            action["degree_fraction"])


def _actions_from(rows: list) -> List[CoordinationAction]:
    # A run replays a few distinct actions many times: build each once
    # and share the frozen instance.
    values = [_action_values(action) for action in rows]
    shared = {value: CoordinationAction(*value) for value in set(values)}
    return [shared[value] for value in values]


def _history_from(history: dict) -> dict:
    """A run's ``epochs`` and ``actions``, built from their rows:
    building each row is what validates it."""
    return {"epochs": _epochs_from(history["epochs"]),
            "actions": _actions_from(history["actions"])}


def _core_from(payload: dict, **history) -> SimulationResult:
    return SimulationResult(payload["workload"], SimStats(**payload["stats"]),
                            payload["instructions"], payload["cycles"],
                            **history)


class _Counters:
    """A stored result's counters, parsed on first use: one ``stats``
    object for a run, a list of one per core for a mix of ``cores``."""

    __slots__ = ("_data", "_cores", "_rows")

    def __init__(self, data: memoryview, cores: Optional[int] = None) -> None:
        self._data = data
        self._cores = cores
        self._rows = None

    def stats(self, core: Optional[int]) -> SimStats:
        """The counters of ``core`` (``None`` for a run's)."""
        if self._rows is None:
            try:
                rows = json.loads(str(self._data, "utf-8"))
            except ValueError as exc:
                raise StoreDecodeError(f"malformed counters: {exc}") \
                    from exc
            if self._cores is not None and (
                    not isinstance(rows, list) or len(rows) != self._cores):
                raise StoreDecodeError("a mix's counters do not match "
                                       "its cores")
            self._rows = rows
            self._data = None
        try:
            return SimStats(**(self._rows if core is None
                               else self._rows[core]))
        except TypeError as exc:
            raise StoreDecodeError(f"malformed counters: {exc}") from exc


def _stored_history(data: memoryview) -> dict:
    """A run's ``epochs`` and ``actions``, built from its stored zlib
    history (:data:`~repro.engine.store.HISTORY_ZLIB`)."""
    try:
        return _history_from(load_history(data))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise StoreDecodeError(f"malformed run history: {exc}") from exc


class _StoredCore(SimulationResult):
    """A core decoded from a summary read, whose parts are built on
    their first read.

    ``stats`` is parsed, checked and built from the row's counters
    (:class:`_Counters`); a run's ``epochs`` and ``actions`` come from
    one inflate of its history, on the first read of either.  A
    malformed part raises :exc:`~repro.engine.store.StoreDecodeError`
    on every read.  Once all three are read it is the plain
    :class:`SimulationResult` it stands for; equality, ``repr``,
    pickling and copying read them first, so they see that result too.
    A warm replay that reads only IPC builds none of them.
    """

    def __getattr__(self, name: str):
        state = vars(self)
        if name == "stats" and "_counters" in state:
            counters, core = state["_counters"]
            state["stats"] = counters.stats(core)
            del state["_counters"]
        elif name in ("epochs", "actions") and "_history" in state:
            state.update(_stored_history(state["_history"]))
            del state["_history"]
        else:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        if "_counters" not in state and "_history" not in state:
            self.__class__ = SimulationResult
        return state[name]

    def _settle(self) -> SimulationResult:
        for name in ("stats", "epochs"):
            getattr(self, name)  # builds the part, once
        return self

    def __eq__(self, other):
        return self._settle() == other

    def __repr__(self) -> str:
        return repr(self._settle())

    def __reduce_ex__(self, protocol):
        return self._settle().__reduce_ex__(protocol)


def _stored_core(head: dict, **parts) -> SimulationResult:
    """A core decoded from its stored ``head``; ``parts`` holds what is
    built on first read (``_counters``, ``_history``) or already built
    (a mix core's empty ``epochs`` and ``actions``)."""
    result = object.__new__(_StoredCore)
    vars(result).update(workload=head["workload"],
                        instructions=head["instructions"],
                        cycles=head["cycles"], **parts)
    return result


def encode_result(result: Result) -> dict:
    """Serialize a simulation result into a JSON-able payload."""
    if isinstance(result, MultiCoreResult):
        return {"schema": ENGINE_SCHEMA, "kind": "mix",
                "cores": [_core_payload(core) for core in result.cores]}
    return {
        "schema": ENGINE_SCHEMA,
        "kind": "run",
        **_core_payload(result),
        "epochs": [_dataclass_dict(epoch) for epoch in result.epochs],
        "actions": [
            {
                "prefetchers_enabled": list(action.prefetchers_enabled),
                "ocp_enabled": action.ocp_enabled,
                "degree_fraction": action.degree_fraction,
            }
            for action in result.actions
        ],
    }


def decode_result(payload: dict) -> Result:
    """Rebuild a result from :func:`encode_result` output, or from a
    result row read with ``ResultStore.get(key, summary=True)``.

    Raises :exc:`~repro.engine.store.StoreDecodeError` on any malformed
    or stale payload so callers treat the entry as a cache miss.  A
    whole payload decodes at once into plain results, with ``list``
    epochs and actions: building them is what validates them.  A row
    read with ``summary`` has its schema, kind and per-core totals
    checked here and its counters and history kept unparsed: each core
    is a :class:`_StoredCore` that builds them on first read, and
    raises :exc:`~repro.engine.store.StoreDecodeError` there when they
    are malformed.
    """
    try:
        if payload.get("schema") != ENGINE_SCHEMA:
            raise StoreDecodeError(
                f"stale payload schema {payload.get('schema')!r}"
            )
        kind = payload["kind"]
        data = payload.get(COUNTERS)
        if kind == "mix":
            cores = payload["cores"]
            if not isinstance(data, memoryview):
                return MultiCoreResult(
                    cores=[_core_from(core) for core in cores])
            counters = _Counters(data, len(cores))
            return MultiCoreResult(cores=[
                _stored_core(core, _counters=(counters, index),
                             epochs=[], actions=[])
                for index, core in enumerate(cores)])
        if kind != "run":
            raise StoreDecodeError(f"unknown payload kind {kind!r}")
        if not isinstance(data, memoryview):
            return _core_from(payload, **_history_from(payload))
        return _stored_core(payload, _counters=(_Counters(data), None),
                            _history=payload[HISTORY_ZLIB])
    except StoreDecodeError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise StoreDecodeError(f"malformed result payload: {exc}") from exc
