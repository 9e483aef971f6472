"""Typed, declarative experiment specs with serialization round-trips.

A *spec* is the programmatic front door to the execution backend: a
plain dataclass that names components by their registry names, carries
schema-validated parameters, and lowers onto the engine's
content-addressed requests through the same
:class:`~repro.experiments.runner.ExperimentContext` planning code the
CLI uses — so ``repro exp run spec.toml`` and the equivalent
``repro sweep`` invocation produce *identical* content-hash keys and
hit the same store entries.

Five spec levels:

* :class:`RunSpec` — one workload × design × policy speedup cell,
* :class:`MixSpec` — one multi-core mix,
* :class:`SweepSpec` — a workloads × designs × policies cross-product,
* :class:`FigureSpec` — named paper figures,
* :class:`ExperimentSpec` — a whole experiment file combining the above.

Every spec round-trips ``to_dict``/``from_dict`` and (at the experiment
level) JSON; experiment files are read from JSON or TOML.  Every spec
has a stable ``content_key()`` content-hash identity.  Validation happens eagerly at construction against the
unified :mod:`repro.api.registry`, so a typo'd policy name or parameter
fails before any simulation starts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.config import AthenaConfig
from ..workloads.suites import SCALES, WorkloadSpec, find_workload
from .params import normalize_params
from .registry import registry

#: bump when the spec layout changes incompatibly; mixed into
#: :func:`ExperimentSpec.content_key`.
SPEC_SCHEMA = 1

#: cache-design variants a RunSpec/MixSpec may select.
VARIANTS = ("full", "baseline", "ocp-only", "pf-only")


class SpecError(ValueError):
    """A spec failed validation (unknown component, bad parameter...)."""


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _jsonable(value):
    """Canonicalize a value for serialization (tuples→lists,
    dataclasses→tables).  Params are already canonicalized at spec
    construction; this covers post-construction mutation too."""
    from .params import canonical_value

    return canonical_value(value)


def _check_fields(payload: dict, known: Sequence[str], what: str) -> None:
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise SpecError(
            f"unknown {what} fields {unknown}; valid: {sorted(known)}"
        )


def _resolve_workload(name: str) -> WorkloadSpec:
    """Registry name or ``trace://`` source → workload spec.

    External-source failures (missing file, unknown adapter, changed
    content) surface as :exc:`SpecError` just like unknown registry
    names, so spec validation reports both the same way.
    """
    try:
        return find_workload(name)
    except KeyError as exc:
        raise SpecError(str(exc.args[0])) from None
    except ValueError as exc:  # TraceImportError from trace:// sources
        raise SpecError(str(exc)) from None


def _registry_validate(kind: str, name: str, params: dict) -> None:
    """Registry validation, re-raised as SpecError for spec callers."""
    try:
        registry.validate(kind, name, params)
    except ValueError as exc:
        raise SpecError(str(exc)) from None


def _apply_variant(design, variant: str):
    if variant == "baseline":
        return design.without_mechanisms()
    if variant == "ocp-only":
        return design.only_ocp()
    if variant == "pf-only":
        return design.only_prefetchers()
    return design


def _overrides(spec) -> dict:
    """plan_* keyword overrides shared by Run/Mix specs."""
    return {
        "trace_length": spec.trace_length,
        "epoch_length": spec.epoch_length,
        "warmup_fraction": spec.warmup_fraction,
    }


def _validate_lengths(spec, what: str) -> None:
    for key in ("trace_length", "epoch_length"):
        value = getattr(spec, key)
        if value is None:
            continue
        if not isinstance(value, int) or isinstance(value, bool) \
                or value <= 0:
            raise SpecError(
                f"{what} {key} must be a positive integer, got {value!r}"
            )
    warmup = spec.warmup_fraction
    if warmup is not None:
        if not isinstance(warmup, (int, float)) \
                or isinstance(warmup, bool) or not 0.0 <= warmup < 1.0:
            raise SpecError(
                f"{what} warmup_fraction must be a number in [0, 1), "
                f"got {warmup!r}"
            )


def _common_post_init(spec, what: str) -> None:
    """Design/policy/variant/length validation shared by Run/Mix specs.

    Both spec kinds carry the same component-selection fields; keeping
    one normalization path means their serialized forms (and therefore
    experiment content keys) can never drift apart.
    """
    spec.design = spec.design.lower()
    try:
        spec.design_params = normalize_params(
            spec.design_params, option="design_params")
        spec.policy_params = normalize_params(
            spec.policy_params, option="policy_params")
    except ValueError as exc:
        raise SpecError(str(exc)) from None
    if spec.variant not in VARIANTS:
        raise SpecError(
            f"unknown variant {spec.variant!r}; valid: {VARIANTS}"
        )
    _registry_validate("design", spec.design, spec.design_params)
    _registry_validate("policy", spec.policy, spec.policy_params)
    _validate_lengths(spec, what)


def _common_to_dict(spec) -> Dict[str, object]:
    """Default-omitting serialization of the shared Run/Mix fields."""
    out: Dict[str, object] = {}
    if spec.design != "cd1":
        out["design"] = spec.design
    if spec.policy != "none":
        out["policy"] = spec.policy
    if spec.variant != "full":
        out["variant"] = spec.variant
    if spec.design_params:
        out["design_params"] = _jsonable(spec.design_params)
    if spec.policy_params:
        out["policy_params"] = _jsonable(spec.policy_params)
    for key in ("trace_length", "epoch_length", "warmup_fraction"):
        value = getattr(spec, key)
        if value is not None:
            out[key] = value
    return out


def _to_variant_design(spec):
    design = registry.create("design", spec.design, **spec.design_params)
    return _apply_variant(design, spec.variant)


def _policy_options(spec) -> Tuple[Tuple[str, object], ...]:
    """Engine ``policy_options`` for a Run/Mix spec.

    Athena carries its configuration as ``athena_config`` on the
    request instead, so its options tuple stays empty — one rule, used
    by both spec kinds, so run and mix content keys cannot drift.
    """
    if spec.policy == "athena":
        return ()
    return tuple(sorted(spec.policy_params.items()))


# ---------------------------------------------------------------------------
# RunSpec
# ---------------------------------------------------------------------------

@dataclass
class RunSpec:
    """One workload × design × policy speedup measurement.

    ``workload`` is a registry name (``ligra.BFS.0``) or an external
    ``trace://path[?adapter=…]`` source (resolved and validated — file
    present, adapter known — at construction; see ``docs/traces.md``).
    Lowered by :meth:`plan` into the baseline request plus the policy
    run(s) — for athena, one per averaged agent seed — exactly as
    :meth:`ExperimentContext.plan_speedup` builds them.
    """

    workload: str
    design: str = "cd1"
    policy: str = "none"
    variant: str = "full"
    design_params: Dict[str, object] = field(default_factory=dict)
    policy_params: Dict[str, object] = field(default_factory=dict)
    trace_length: Optional[int] = None
    epoch_length: Optional[int] = None
    warmup_fraction: Optional[float] = None

    def __post_init__(self) -> None:
        _resolve_workload(self.workload)
        _common_post_init(self, "run")

    # -- lowering ----------------------------------------------------------

    def to_design(self):
        return _to_variant_design(self)

    def athena_config(self) -> Optional[AthenaConfig]:
        if self.policy == "athena" and self.policy_params:
            from .registry import build_athena_config

            return build_athena_config(self.policy_params)
        return None

    def policy_options(self) -> Tuple[Tuple[str, object], ...]:
        return _policy_options(self)

    def plan(self, ctx) -> list:
        """Baseline + policy requests via the shared planner."""
        return ctx.plan_speedup(
            _resolve_workload(self.workload),
            self.to_design(),
            self.policy,
            self.athena_config(),
            policy_options=self.policy_options(),
            **_overrides(self),
        )

    # -- serialization -----------------------------------------------------

    _FIELDS = ("workload", "design", "policy", "variant", "design_params",
               "policy_params", "trace_length", "epoch_length",
               "warmup_fraction")

    def to_dict(self) -> dict:
        return {"workload": self.workload, **_common_to_dict(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "RunSpec":
        _check_fields(payload, cls._FIELDS, "run spec")
        if "workload" not in payload:
            raise SpecError("run spec requires a 'workload'")
        return cls(**payload)


# ---------------------------------------------------------------------------
# MixSpec
# ---------------------------------------------------------------------------

@dataclass
class MixSpec:
    """One multi-core mix: N workloads co-running on one design.

    Each entry of ``workloads`` accepts the same spellings as
    :class:`RunSpec.workload` — registry names and ``trace://``
    sources can co-run in one mix.
    """

    workloads: List[str]
    design: str = "cd1"
    policy: str = "none"
    variant: str = "full"
    name: str = ""
    design_params: Dict[str, object] = field(default_factory=dict)
    policy_params: Dict[str, object] = field(default_factory=dict)
    trace_length: Optional[int] = None
    epoch_length: Optional[int] = None
    warmup_fraction: Optional[float] = None

    def __post_init__(self) -> None:
        self.workloads = list(self.workloads)
        if not self.workloads:
            raise SpecError("mix spec needs at least one workload")
        for name in self.workloads:
            _resolve_workload(name)
        _common_post_init(self, "mix")
        if self.policy == "athena" and self.policy_params:
            raise SpecError(
                "mix specs do not support athena policy_params yet; "
                "athena mixes run the default configuration"
            )
        if not self.name:
            self.name = f"mix{len(self.workloads)}c.custom"

    def to_design(self):
        return _to_variant_design(self)

    def plan(self, ctx):
        from ..workloads.mixes import WorkloadMix

        mix = WorkloadMix(
            name=self.name,
            category="custom",
            workloads=tuple(_resolve_workload(n) for n in self.workloads),
        )
        return ctx.plan_mix(
            mix, self.to_design(), self.policy,
            policy_options=_policy_options(self),
            **_overrides(self),
        )

    _FIELDS = ("workloads", "design", "policy", "variant", "name",
               "design_params", "policy_params", "trace_length",
               "epoch_length", "warmup_fraction")

    def to_dict(self) -> dict:
        out: Dict[str, object] = {"workloads": list(self.workloads)}
        if self.name != f"mix{len(self.workloads)}c.custom":
            out["name"] = self.name
        out.update(_common_to_dict(self))
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "MixSpec":
        _check_fields(payload, cls._FIELDS, "mix spec")
        if "workloads" not in payload:
            raise SpecError("mix spec requires 'workloads'")
        return cls(**payload)


# ---------------------------------------------------------------------------
# SweepSpec
# ---------------------------------------------------------------------------

@dataclass
class SweepSpec:
    """A workloads × designs × policies speedup cross-product.

    ``workloads`` is either an explicit name list or the string
    ``"pool"``/``"pool:N"`` for the scale's representative subset —
    the same spellings ``repro sweep --workloads`` accepts.
    """

    workloads: Union[str, List[str]] = "pool"
    designs: List[str] = field(default_factory=lambda: ["cd1"])
    policies: List[str] = field(default_factory=lambda: ["none", "athena"])

    def __post_init__(self) -> None:
        if isinstance(self.workloads, str):
            name = self.workloads
            if name != "pool" and not name.startswith("pool:"):
                raise SpecError(
                    f"sweep workloads must be a list of names or "
                    f"'pool'/'pool:N', got {name!r}"
                )
            if name.startswith("pool:"):
                try:
                    int(name.partition(":")[2])
                except ValueError:
                    raise SpecError(f"bad pool size in {name!r}") from None
        else:
            self.workloads = list(self.workloads)
            if not self.workloads:
                raise SpecError("sweep needs at least one workload")
            for name in self.workloads:
                _resolve_workload(name)
        self.designs = [d.lower() for d in self.designs]
        self.policies = list(self.policies)
        if not self.designs or not self.policies:
            raise SpecError("sweep needs at least one design and one policy")
        # membership via the registry (not names()) so legacy-dict
        # registrations resolve through the fallback hook too.
        bad = [p for p in self.policies if ("policy", p) not in registry]
        if bad:
            raise SpecError(
                f"unknown policies {bad}; valid: {registry.names('policy')}"
            )
        for name in self.designs:
            _registry_validate("design", name, {})

    def resolve_workloads(self, ctx) -> List[WorkloadSpec]:
        if isinstance(self.workloads, str):
            _, sep, count = self.workloads.partition(":")
            return list(ctx.workload_pool(int(count) if sep else None))
        return [_resolve_workload(name) for name in self.workloads]

    def columns(self) -> List[Tuple[str, str, str]]:
        """(label, design, policy) for every sweep column."""
        return [
            (f"{design}/{policy}", design, policy)
            for design in self.designs for policy in self.policies
        ]

    def plan(self, ctx) -> list:
        """The full request cross-product, as :meth:`Session.sweep`
        evaluates it."""
        designs = self.resolve_designs()
        return [
            request
            for spec in self.resolve_workloads(ctx)
            for _, dname, policy in self.columns()
            for request in ctx.plan_speedup(spec, designs[dname], policy)
        ]

    def resolve_designs(self) -> Dict[str, object]:
        return {
            name: registry.create("design", name) for name in self.designs
        }

    _FIELDS = ("workloads", "designs", "policies")

    def to_dict(self) -> dict:
        out: Dict[str, object] = {}
        if self.workloads != "pool":
            out["workloads"] = self.workloads if isinstance(
                self.workloads, str) else list(self.workloads)
        if self.designs != ["cd1"]:
            out["designs"] = list(self.designs)
        if self.policies != ["none", "athena"]:
            out["policies"] = list(self.policies)
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepSpec":
        _check_fields(payload, cls._FIELDS, "sweep spec")
        return cls(**payload)


# ---------------------------------------------------------------------------
# FigureSpec
# ---------------------------------------------------------------------------

@dataclass
class FigureSpec:
    """Named paper figures to regenerate (or every one)."""

    figures: List[str] = field(default_factory=list)
    all: bool = False

    def __post_init__(self) -> None:
        from ..experiments.figures import FIGURES

        self.figures = list(self.figures)
        if not self.all and not self.figures:
            raise SpecError(
                "no figures requested (name some or set all=true)"
            )
        unknown = [fid for fid in self.figures if fid not in FIGURES]
        if unknown:
            known = ", ".join(sorted(FIGURES))
            raise SpecError(f"unknown figures {unknown}; known: {known}")

    def resolve(self) -> List[str]:
        from ..experiments.figures import FIGURES

        return list(FIGURES) if self.all else list(self.figures)

    _FIELDS = ("figures", "all")

    def to_dict(self) -> dict:
        out: Dict[str, object] = {}
        if self.figures:
            out["figures"] = list(self.figures)
        if self.all:
            out["all"] = True
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "FigureSpec":
        _check_fields(payload, cls._FIELDS, "figure spec")
        return cls(**payload)


# ---------------------------------------------------------------------------
# ExperimentSpec
# ---------------------------------------------------------------------------

@dataclass
class ExperimentSpec:
    """A whole experiment: runs + mixes + sweeps + figures in one file."""

    name: str = "experiment"
    scale: Optional[str] = None
    runs: List[RunSpec] = field(default_factory=list)
    mixes: List[MixSpec] = field(default_factory=list)
    sweeps: List[SweepSpec] = field(default_factory=list)
    figures: List[FigureSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.scale is not None and self.scale not in SCALES:
            raise SpecError(
                f"unknown scale {self.scale!r}; valid: {sorted(SCALES)}"
            )
        if not (self.runs or self.mixes or self.sweeps or self.figures):
            raise SpecError(
                "experiment spec is empty: add runs, mixes, sweeps, "
                "or figures"
            )

    def sections(self) -> List[Tuple[str, object]]:
        """(kind, spec) pairs in execution order."""
        return (
            [("sweep", s) for s in self.sweeps]
            + [("run", r) for r in self.runs]
            + [("mix", m) for m in self.mixes]
            + [("figure", f) for f in self.figures]
        )

    # -- serialization -----------------------------------------------------

    _FIELDS = ("name", "scale", "runs", "mixes", "sweeps", "figures")

    def to_dict(self) -> dict:
        out: Dict[str, object] = {"name": self.name}
        if self.scale is not None:
            out["scale"] = self.scale
        for key in ("runs", "mixes", "sweeps", "figures"):
            specs = getattr(self, key)
            if specs:
                out[key] = [spec.to_dict() for spec in specs]
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentSpec":
        if not isinstance(payload, dict):
            raise SpecError(
                f"experiment spec must be a table, got {type(payload).__name__}"
            )
        _check_fields(payload, cls._FIELDS, "experiment spec")
        sections = {
            "runs": RunSpec, "mixes": MixSpec,
            "sweeps": SweepSpec, "figures": FigureSpec,
        }
        kwargs: Dict[str, object] = {}
        for key, value in payload.items():
            if key in sections:
                if not isinstance(value, (list, tuple)):
                    raise SpecError(f"{key!r} must be an array of tables")
                kwargs[key] = [
                    sections[key].from_dict(item) for item in value
                ]
            else:
                kwargs[key] = value
        return cls(**kwargs)

    # -- JSON --------------------------------------------------------------

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON spec: {exc}") from None
        return cls.from_dict(payload)

    # -- TOML --------------------------------------------------------------

    @classmethod
    def from_toml(cls, text: str) -> "ExperimentSpec":
        import tomllib

        try:
            payload = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise SpecError(f"invalid TOML spec: {exc}") from None
        return cls.from_dict(payload)

    @classmethod
    def load(cls, path) -> "ExperimentSpec":
        """Load a spec file, dispatching on suffix (.toml/.json)."""
        import pathlib

        path = pathlib.Path(path)
        suffix = path.suffix.lower()
        if suffix not in (".toml", ".json"):
            raise SpecError(
                f"unsupported spec format {suffix or '(no extension)'} "
                f"for {path}; expected .toml or .json"
            )
        try:
            text = path.read_text()
        except OSError as exc:
            raise SpecError(f"cannot read spec {path}: {exc}") from None
        if suffix == ".json":
            return cls.from_json(text)
        return cls.from_toml(text)

    # -- identity ----------------------------------------------------------

    def content_key(self) -> str:
        """Stable sha256 identity of the spec's canonical form."""
        blob = json.dumps(
            {"schema": SPEC_SCHEMA, "experiment": self.to_dict()},
            sort_keys=True, separators=(",", ":"), default=repr,
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()
