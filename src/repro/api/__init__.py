"""repro.api — the typed, declarative experiment SDK.

The single programmatic front door to the toolkit: typed specs
(:class:`RunSpec`, :class:`MixSpec`, :class:`SweepSpec`,
:class:`FigureSpec`, :class:`ExperimentSpec`) that serialize to
JSON/TOML and lower onto the parallel engine's content-addressed
requests; a unified schema-validated :data:`registry` of policies,
prefetchers, OCPs, cache designs, and trace adapters (with
:func:`register_policy`-style plugin decorators); and a
:class:`Session` facade over an engine, with blocking, streaming, and
whole-experiment execution.  The CLI is a thin shell over this module.
"""

from ..engine.faults import (ExecutionError, ExecutionPolicy, FaultPlan,
                             RequestFailure)
from .params import coerce_value, normalize_params, parse_assignments
from .registry import (
    ComponentRegistry,
    ParamSpec,
    make_design,
    register_design,
    register_ocp,
    register_policy,
    register_prefetcher,
    register_trace_adapter,
    registry,
    schema_from_callable,
)
from .results import (
    ExperimentResult,
    FigureOutcome,
    MixResult,
    RunResult,
    SweepResult,
)
from .session import Session
from .spec import (
    SPEC_SCHEMA,
    ExperimentSpec,
    FigureSpec,
    MixSpec,
    RunSpec,
    SpecError,
    SweepSpec,
)

__all__ = [
    "ComponentRegistry",
    "ExecutionError",
    "ExecutionPolicy",
    "ExperimentResult",
    "ExperimentSpec",
    "FaultPlan",
    "FigureOutcome",
    "FigureSpec",
    "MixResult",
    "MixSpec",
    "ParamSpec",
    "RequestFailure",
    "RunResult",
    "RunSpec",
    "SPEC_SCHEMA",
    "Session",
    "SpecError",
    "SweepResult",
    "SweepSpec",
    "coerce_value",
    "make_design",
    "normalize_params",
    "parse_assignments",
    "register_design",
    "register_ocp",
    "register_policy",
    "register_prefetcher",
    "register_trace_adapter",
    "registry",
    "schema_from_callable",
]
