"""Unified component registry: policies, prefetchers, OCPs, cache
designs and trace adapters behind one schema-validated factory.

This is the only name → factory table in the library.  The
:class:`ComponentRegistry` owns name validation and error wording for
every consumer (CLI, spec files, figure drivers, the engine):

* ``create(kind, name, **params)`` validates the name *and* the keyword
  parameters against the component's schema, raising :exc:`ValueError`
  with a stable message on anything unknown,
* ``schema(kind, name)`` exposes per-component parameter schemas
  (derived from constructor signatures, or from
  :class:`~repro.core.config.AthenaConfig` for athena) so ``repro list``
  and spec validation share one source of truth, and
* decorator hooks (:func:`register_policy`, :func:`register_prefetcher`,
  …) let plugins — e.g. ``examples/custom_policy.py`` — add components
  without editing core files.  Note that worker *processes* re-import
  the library from scratch: a plugin component is only visible to a
  parallel engine if its defining module is importable by workers;
  otherwise run with ``jobs=1``.

The lower layers reach this table through one-line lazy helpers
(:func:`repro.policies.make_policy`, :func:`repro.prefetchers.make_prefetcher`,
:func:`repro.ocp.make_ocp`, :func:`make_design`), so importing them does
not import the api package.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import MISSING, dataclass, fields as dataclass_fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: sentinel default for parameters that must be supplied by the caller.
REQUIRED = object()


@dataclass(frozen=True)
class ParamSpec:
    """One constructor parameter of a registered component."""

    name: str
    default: object = REQUIRED
    annotation: str = ""

    @property
    def required(self) -> bool:
        return self.default is REQUIRED

    def describe(self) -> str:
        if self.required:
            return f"{self.name}=<required>"
        return f"{self.name}={self.default!r}"


def _annotation_name(annotation) -> str:
    if annotation is inspect.Parameter.empty:
        return ""
    if isinstance(annotation, str):
        return annotation
    return getattr(annotation, "__name__", str(annotation))


def schema_from_callable(factory: Callable) -> Dict[str, ParamSpec]:
    """Derive a parameter schema from a constructor/factory signature."""
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):
        return {}
    out: Dict[str, ParamSpec] = {}
    for param in signature.parameters.values():
        if param.name == "self":
            continue
        if param.kind in (inspect.Parameter.VAR_POSITIONAL,
                          inspect.Parameter.VAR_KEYWORD):
            continue
        default = REQUIRED if param.default is inspect.Parameter.empty \
            else param.default
        out[param.name] = ParamSpec(
            name=param.name, default=default,
            annotation=_annotation_name(param.annotation),
        )
    return out


def _value_type_ok(value: object, default: object) -> bool:
    """Loose value check against the parameter's default type.

    Only scalar defaults are enforced (int promotes to float, lists
    stand in for tuple defaults); required, ``None``, and structured
    defaults accept anything — the constructor is their arbiter.
    """
    if default is REQUIRED or default is None or value is None:
        return True
    if isinstance(default, bool):
        return isinstance(value, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float)) \
            and not isinstance(value, bool)
    if isinstance(default, int):
        return isinstance(value, int) and not isinstance(value, bool)
    if isinstance(default, str):
        return isinstance(value, str)
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple))
    return True


def _accepts_any_keyword(factory: Callable) -> bool:
    """Whether the factory signature carries ``**kwargs``."""
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):
        return True  # unintrospectable: don't reject anything
    return any(
        param.kind is inspect.Parameter.VAR_KEYWORD
        for param in signature.parameters.values()
    )


def _is_dataclass_default(default: object) -> bool:
    return dataclasses.is_dataclass(default) \
        and not isinstance(default, type)


def _coerce_dataclass_value(kind, name, key, value, default):
    """Rebuild a dataclass-typed parameter from its serialized table.

    Spec files carry config objects (HpacThresholds, RewardWeights, …)
    as plain tables; every component gets the same dict→dataclass
    reconstruction athena's config enjoys, and a bad table fails here —
    eagerly — rather than as an AttributeError inside a pool worker.
    """
    try:
        return type(default)(**value)
    except TypeError as exc:
        raise ValueError(
            f"invalid value for option {key!r} of {kind} {name!r}: {exc}"
        ) from None


def schema_from_dataclass(cls) -> Dict[str, ParamSpec]:
    """Derive a schema from a (config) dataclass's fields."""
    out: Dict[str, ParamSpec] = {}
    for f in dataclass_fields(cls):
        if f.default is not MISSING:
            default: object = f.default
        elif f.default_factory is not MISSING:  # type: ignore[misc]
            default = f.default_factory()  # type: ignore[misc]
        else:
            default = REQUIRED
        out[f.name] = ParamSpec(
            name=f.name, default=default,
            annotation=_annotation_name(f.type),
        )
    return out


@dataclass
class Component:
    """One registered component: factory + parameter schema."""

    kind: str
    name: str
    factory: Callable
    schema: Dict[str, ParamSpec]
    description: str = ""
    #: a ``**kwargs`` factory accepts option names beyond its schema,
    #: so unknown-name rejection must be skipped for it.
    open_options: bool = False
    #: overrides the default unknown-option message (athena/none keep
    #: their historical, test-pinned wording).
    options_error: Optional[Callable[[List[str]], str]] = None

    def unknown_options_message(self, bad: Sequence[str]) -> str:
        if self.options_error is not None:
            return self.options_error(sorted(bad))
        return (
            f"unsupported options {sorted(bad)} for {self.kind} "
            f"{self.name!r}; valid: {sorted(self.schema) or '(none)'}"
        )


class ComponentRegistry:
    """Name → factory registry across every component kind.

    Kinds in the default registry: ``policy``, ``prefetcher``, ``ocp``,
    ``design``, and ``trace_adapter``.  Each component pairs
    a factory with a parameter schema (usually derived from its
    constructor signature); :meth:`validate` checks names and option
    values *without* instantiating, :meth:`create` validates then
    builds, and :meth:`schema` feeds ``repro list`` and spec-file
    validation from the same source of truth.

    ``loaders`` register a kind's built-in components on the kind's
    first use, so a process that validates a policy name imports no
    prefetcher, and one that only replays stored results imports none
    of them.
    """

    def __init__(self, loaders: Optional[Dict[str, Callable[[], None]]]
                 = None) -> None:
        self._components: Dict[Tuple[str, str], Component] = {}
        self._loaders = dict(loaders or {})

    def _load(self, kind: str) -> None:
        # Popped before it runs: the loader registers through register().
        loader = self._loaders.pop(kind, None)
        if loader is not None:
            loader()

    # -- registration ------------------------------------------------------

    def register(
        self,
        kind: str,
        name: str,
        factory: Callable,
        schema: Optional[Dict[str, ParamSpec]] = None,
        description: str = "",
        options_error: Optional[Callable[[List[str]], str]] = None,
        replace: bool = False,
    ) -> Component:
        self._load(kind)
        key = (kind, name)
        if key in self._components and not replace:
            raise ValueError(f"{kind} {name!r} is already registered")
        component = Component(
            kind=kind,
            name=name,
            factory=factory,
            schema=schema_from_callable(factory) if schema is None else schema,
            description=description,
            # an explicit schema is authoritative (closed); a derived
            # one stays open when the factory takes **kwargs
            open_options=(schema is None
                          and _accepts_any_keyword(factory)),
            options_error=options_error,
        )
        self._components[key] = component
        return component

    # -- lookup ------------------------------------------------------------

    def kinds(self) -> List[str]:
        for kind in list(self._loaders):
            self._load(kind)
        return sorted({kind for kind, _ in self._components})

    def names(self, kind: str) -> List[str]:
        self._load(kind)
        return sorted(name for k, name in self._components if k == kind)

    def __contains__(self, key: Tuple[str, str]) -> bool:
        self._load(key[0])
        return key in self._components

    def get(self, kind: str, name: str) -> Component:
        self._load(kind)
        component = self._components.get((kind, name))
        if component is None:
            raise ValueError(
                f"unknown {kind} {name!r}; valid: {self.names(kind)}"
            )
        return component

    def schema(self, kind: str, name: str) -> Dict[str, ParamSpec]:
        return dict(self.get(kind, name).schema)

    def components(self, kind: str) -> List[Component]:
        return [self.get(kind, name) for name in self.names(kind)]

    # -- validation + construction ----------------------------------------

    def validate(self, kind: str, name: str, params: dict) -> Component:
        """Check ``name`` and ``params`` without instantiating anything.

        Validates option *names* against the schema and option *values*
        against each parameter's default type (ints are acceptable
        floats; ``None`` is always allowed for optional components), so
        a spec file's quoting mistake — ``discount = "0.98"`` — fails
        here, before any simulation starts, not inside a pool worker.
        """
        component = self.get(kind, name)
        if not component.open_options:
            bad = [key for key in params if key not in component.schema]
            if bad:
                raise ValueError(component.unknown_options_message(bad))
        missing = [
            key for key, spec in component.schema.items()
            if spec.required and key not in params
        ]
        if missing:
            raise ValueError(
                f"missing required options {missing} for {kind} {name!r}"
            )
        for key, value in params.items():
            if key not in component.schema:
                continue  # open-schema extra: the factory is the arbiter
            default = component.schema[key].default
            if _is_dataclass_default(default) and isinstance(value, dict):
                # eagerly prove the table reconstructs (discarded here,
                # rebuilt for real in create())
                _coerce_dataclass_value(kind, name, key, value, default)
            elif not _value_type_ok(value, default):
                raise ValueError(
                    f"invalid value for option {key!r} of {kind} "
                    f"{name!r}: expected {type(default).__name__}, got "
                    f"{type(value).__name__} ({value!r})"
                )
        return component

    def create(self, kind: str, name: str, **params):
        """Instantiate a component, validating name and parameters."""
        component = self.validate(kind, name, params)
        built = {}
        for key, value in params.items():
            default = component.schema[key].default \
                if key in component.schema else REQUIRED
            if _is_dataclass_default(default) and isinstance(value, dict):
                value = _coerce_dataclass_value(kind, name, key, value,
                                                default)
            built[key] = value
        try:
            return component.factory(**built)
        except TypeError:
            # Backstop for signatures inspect could not see through —
            # but only call-binding mismatches; a TypeError raised
            # *inside* the constructor is a real bug and must surface.
            try:
                inspect.signature(component.factory).bind(**built)
            except TypeError:
                raise ValueError(
                    component.unknown_options_message(list(params))
                ) from None
            except ValueError:
                pass  # unintrospectable factory: can't classify
            raise


# ---------------------------------------------------------------------------
# the default registry: each component family registers on first use
# ---------------------------------------------------------------------------


def build_athena_config(params: dict):
    """The one dict→AthenaConfig path (registry and spec layer both).

    Serialization turns tuples into lists and ``RewardWeights`` into a
    table; undo both so every entry point builds the identical
    (hash-identical) config from the same parameters.
    """
    from ..core.config import AthenaConfig, RewardWeights

    kwargs = {}
    for key, value in params.items():
        if key == "reward_weights" and isinstance(value, dict):
            value = RewardWeights(**value)
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    try:
        return AthenaConfig(**kwargs)
    except TypeError:
        raise ValueError(
            f"unsupported athena options {sorted(kwargs)}; valid: "
            f"{sorted(AthenaConfig.__dataclass_fields__)}"
        ) from None


def _register_policies() -> None:
    from ..core.config import AthenaConfig
    from ..policies.athena import AthenaPolicy
    from ..policies.base import NaivePolicy
    from ..policies.hpac import HpacPolicy
    from ..policies.mab import MabPolicy
    from ..policies.tlp import TlpPolicy

    def make_athena(**kwargs):
        if not kwargs:
            return AthenaPolicy()
        return AthenaPolicy(build_athena_config(kwargs))

    def athena_error(bad: List[str]) -> str:
        return (
            f"unsupported athena options {bad}; valid: "
            f"{sorted(AthenaConfig.__dataclass_fields__)}"
        )

    def make_none(**kwargs):
        return None

    def none_error(bad: List[str]) -> str:
        return f"policy 'none' accepts no options; got {bad}"

    registry.register(
        "policy", "athena", make_athena,
        schema=schema_from_dataclass(AthenaConfig),
        description="Athena SARSA coordination (the paper's policy)",
        options_error=athena_error, replace=True,
    )
    registry.register(
        "policy", "none", make_none, schema={},
        description="no coordination: every mechanism always on",
        options_error=none_error, replace=True,
    )
    for name, cls in (("naive", NaivePolicy), ("hpac", HpacPolicy),
                      ("mab", MabPolicy), ("tlp", TlpPolicy)):
        registry.register("policy", name, cls, replace=True)


def _register_prefetchers() -> None:
    from ..prefetchers.berti import BertiPrefetcher
    from ..prefetchers.ipcp import IpcpPrefetcher
    from ..prefetchers.mlop import MlopPrefetcher
    from ..prefetchers.pythia import PythiaPrefetcher
    from ..prefetchers.sms import SmsPrefetcher
    from ..prefetchers.spp_ppf import SppPpfPrefetcher
    from ..prefetchers.streamer import StreamPrefetcher

    for name, cls in (("ipcp", IpcpPrefetcher), ("berti", BertiPrefetcher),
                      ("pythia", PythiaPrefetcher),
                      ("spp_ppf", SppPpfPrefetcher),
                      ("mlop", MlopPrefetcher), ("sms", SmsPrefetcher),
                      ("streamer", StreamPrefetcher)):
        registry.register("prefetcher", name, cls, replace=True)


def _register_ocps() -> None:
    from ..ocp.hmp import HmpPredictor
    from ..ocp.popet import PopetPredictor
    from ..ocp.ttp import TtpPredictor

    for name, cls in (("popet", PopetPredictor), ("hmp", HmpPredictor),
                      ("ttp", TtpPredictor)):
        registry.register("ocp", name, cls, replace=True)


def _register_designs() -> None:
    from ..experiments.configs import CacheDesign

    presets = {
        "cd1": "OCP + 1 L2C prefetcher (POPET + Pythia)",
        "cd2": "OCP + 1 L1D prefetcher (POPET + IPCP)",
        "cd3": "OCP + 2 L2C prefetchers (POPET + SMS + Pythia)",
        "cd4": "OCP + 1 L1D + 1 L2C prefetcher (POPET + IPCP + Pythia)",
    }
    for name, description in presets.items():
        registry.register("design", name, getattr(CacheDesign, name),
                          description=description, replace=True)


def _register_trace_adapters() -> None:
    from ..workloads.ingest import MemtraceAdapter, NpzAdapter

    for cls in (MemtraceAdapter, NpzAdapter):
        doc = (cls.__doc__ or "").strip().splitlines()
        registry.register(
            "trace_adapter", cls.name, cls,
            description=doc[0] if doc else "", replace=True,
        )


registry = ComponentRegistry(loaders={
    "policy": _register_policies,
    "prefetcher": _register_prefetchers,
    "ocp": _register_ocps,
    "design": _register_designs,
    "trace_adapter": _register_trace_adapters,
})


# ---------------------------------------------------------------------------
# plugin decorators
# ---------------------------------------------------------------------------

def _plugin_decorator(kind: str):
    """Build one ``@register_<kind>`` decorator: register with the
    registry, refusing to clobber an existing name unless
    ``replace=True``."""
    def register_fn(name: str, description: str = "",
                    replace: bool = False):
        def decorate(factory):
            registry.register(kind, name, factory,
                              description=description, replace=replace)
            return factory
        return decorate
    return register_fn


#: Class/factory decorator adding a coordination policy by name::
#:
#:     @register_policy("accuracy_gated")
#:     class AccuracyGatedPolicy(CoordinationPolicy): ...
register_policy = _plugin_decorator("policy")
#: Class/factory decorator adding a prefetcher by name.
register_prefetcher = _plugin_decorator("prefetcher")
#: Class/factory decorator adding an off-chip predictor by name.
register_ocp = _plugin_decorator("ocp")
#: Factory decorator adding a cache-design preset by name.
register_design = _plugin_decorator("design")
#: Class/factory decorator adding an external-trace format by name::
#:
#:     @register_trace_adapter("champsimish")
#:     class ChampSimishAdapter:
#:         def peek_length(self, path) -> int: ...
#:         def iter_rows(self, path): ...  # (pcs, addrs, flags) arrays
register_trace_adapter = _plugin_decorator("trace_adapter")
#: Class decorator adding an invariant-linter rule by id (see
#: :mod:`repro.analysis`); the built-in rules register themselves when
#: the analysis package is imported::
#:
#:     @register_lint_rule("no-print-statements")
#:     class NoPrints(LintRule): ...
register_lint_rule = _plugin_decorator("lint_rule")


def make_design(name: str, **params):
    """Instantiate a cache design preset (``cd1`` … ``cd4`` or plugin)."""
    return registry.create("design", name.lower(), **params)
