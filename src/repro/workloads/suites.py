"""Workload suite registry: the 100 evaluation workloads, the 20 tuning
workloads, and the 12-category Google/DPC4-like "unseen" suite.

The composition mirrors paper Table 6:

* SPEC CPU 2006-like: 29 traces (streams, strides, irregular mcf-likes)
* SPEC CPU 2017-like: 20 traces
* PARSEC-like:        13 traces (stencils, streaming, canneal chase)
* Ligra-like:         13 traces (graph kernels)
* CVP-like:           25 traces (int/fp compute with memory bursts)

Every workload is produced by a seeded generator, so the whole registry is
deterministic.  Trace length is a parameter (`ReproScale`) because the
paper's 150M-500M instruction traces are far beyond interactive Python
simulation; docs/reproduction.md documents the scaling argument.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from .streaming import TraceStream, reblock

if TYPE_CHECKING:  # the generators run where a trace is built
    from .generators import Rows
    from .trace import Trace


@dataclass(frozen=True)
class WorkloadSpec:
    """Recipe for one deterministic workload.

    A spec defines its trace once, as an iterator of
    ``(pcs, addrs, flags)`` rows (:meth:`rows`) plus the trace's
    metadata (:meth:`metadata`); :meth:`build` concatenates the rows and
    :meth:`stream` re-blocks them.  For synthetic workloads the recipe
    is (pattern, seed, params) and the rows come from the pattern's
    phase plan.  External traces subclass this
    (:class:`repro.workloads.ingest.ExternalTraceSpec`) with params
    carrying the file's sha256 and adapter, so the same canonical
    recipe drives both the trace cache and the engine's result keys.
    """

    name: str
    suite: str
    pattern: str
    seed: int
    params: Tuple[Tuple[str, object], ...] = ()

    def rows(self, length: int) -> Iterator[Rows]:
        """This workload's rows for a ``length``-instruction trace.

        They may overshoot ``length``; :meth:`build` and :meth:`stream`
        cut them there.
        """
        from .generators import WORKLOAD_PLANS, _compose_rows

        plan = WORKLOAD_PLANS[self.pattern](self.seed, **dict(self.params))
        return _compose_rows(self.seed, length, plan)

    def metadata(self, length: int) -> dict:
        """The metadata of this workload's ``length``-instruction trace."""
        return {"seed": self.seed, "length": length}

    def build(self, length: int) -> Trace:
        """Materialize the trace: the rows concatenated and cut to
        ``length`` (an overshooting trace is renamed ``name[0:length]``).
        """
        from .trace import TraceBuilder

        builder = TraceBuilder(self.name, self.suite)
        for rows in self.rows(length):
            builder.extend(*rows)
        trace = builder.build(metadata=self.metadata(length))
        if len(trace) > length:
            trace = trace.slice(0, length)
        return trace

    def stream(self, length: int, block_size: int) -> TraceStream:
        """Emit this workload as fixed-size blocks (raw, uncached).

        Each traversal re-blocks a fresh pass over the same rows, so the
        stream is byte-identical to :meth:`build` at every block size,
        name included; route through :func:`stream_trace` to reuse the
        trace cache's tiers.
        """
        def factory() -> Iterator:
            offered = yield from reblock(self.rows(length), block_size,
                                         limit=length)
            if offered > length:
                stream.name = f"{self.name}[0:{length}]"

        stream = TraceStream(
            name=self.name,
            suite=self.suite,
            length=length,
            block_size=block_size,
            factory=factory,
            metadata=self.metadata(length),
        )
        return stream

    def canonical_recipe(self) -> dict:
        """The JSON-able identity every content hash derives from.

        Shared by :func:`repro.workloads.tracecache.fingerprint` and
        the engine's request keys (:mod:`repro.engine.jobs`), so the
        two layers can never disagree about what identifies a
        workload.  Deliberately excludes anything that is a *hint*
        rather than identity — e.g. an external trace's file path.
        """
        return {
            "name": self.name,
            "suite": self.suite,
            "pattern": self.pattern,
            "seed": self.seed,
            "params": [[k, v] for k, v in self.params],
        }


@dataclass(frozen=True)
class ReproScale:
    """Trace-length / workload-count scaling for experiments."""

    name: str
    trace_length: int
    workloads_per_figure: int
    epoch_length: int
    #: agent seeds averaged per (workload, policy) for the seeded learning
    #: policies (Athena, MAB).  The paper's 500M-instruction runs average
    #: away single-trajectory RL noise; short reproduction runs recover
    #: that by averaging a few independent agent trajectories instead.
    policy_seeds: int = 3

    @property
    def warmup_fraction(self) -> float:
        """Fraction of the trace excluded from measurement.

        Chosen so a learning policy's forced exploration (at most 8
        epochs) falls inside the unmeasured region at every scale.
        """
        return 0.35


SCALES: Dict[str, ReproScale] = {
    "tiny": ReproScale("tiny", trace_length=6_000,
                       workloads_per_figure=6, epoch_length=150),
    "small": ReproScale("small", trace_length=24_000,
                        workloads_per_figure=10, epoch_length=600),
    "medium": ReproScale("medium", trace_length=40_000,
                         workloads_per_figure=24, epoch_length=400),
    "full": ReproScale("full", trace_length=100_000,
                       workloads_per_figure=100, epoch_length=1000),
}


def active_scale() -> ReproScale:
    """The scale selected by the ``REPRO_SCALE`` environment variable."""
    name = os.environ.get("REPRO_SCALE", "small")
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(
            f"REPRO_SCALE={name!r} unknown; valid: {sorted(SCALES)}"
        ) from None


def _spec(name, suite, pattern, seed, **params) -> WorkloadSpec:
    return WorkloadSpec(
        name=name, suite=suite, pattern=pattern, seed=seed,
        params=tuple(sorted(params.items())),
    )


def _spec_cpu_workloads() -> List[WorkloadSpec]:
    """49 SPEC-like workloads (29 '2006' + 20 '2017')."""
    out: List[WorkloadSpec] = []
    # SPEC 2006-like — named after representative benchmarks.
    spec06 = [
        ("mcf_like", "pointer_chase", {"working_set_lines": 1 << 14}),
        ("omnetpp_like", "pointer_chase", {"working_set_lines": 1 << 13}),
        ("xalancbmk_like", "hash_probe", {"working_set_lines": 1 << 16}),
        ("astar_like", "phased", {}),
        ("gobmk_like", "compute", {"memory_ratio": 0.10,
                                   "mispredict_rate": 0.05}),
        ("libquantum_like", "streaming", {"stride": 1}),
        ("leslie3d_like", "stencil", {}),
        ("GemsFDTD_like", "stencil", {}),
        ("milc_like", "streaming", {"stride": 2}),
        ("sphinx3_like", "phased", {}),
        ("soplex_like", "hash_probe", {"working_set_lines": 1 << 15}),
        ("lbm06_like", "streaming", {"stride": 1}),
        ("bzip2_like", "phased", {}),
        ("hmmer_like", "streaming", {"stride": 1}),
        ("zeusmp_like", "stencil", {}),
    ]
    seeds_per = 2
    seed = 100
    for base_name, pattern, params in spec06:
        for rep in range(seeds_per):
            out.append(_spec(f"spec06.{base_name}.{rep}", "spec",
                             pattern, seed, **params))
            seed += 7
            if len(out) == 29:
                break
        if len(out) == 29:
            break
    # SPEC 2017-like.
    spec17 = [
        ("mcf17_like", "pointer_chase", {"working_set_lines": 1 << 15}),
        ("xalancbmk17_like", "hash_probe", {"working_set_lines": 1 << 16}),
        ("gcc17_like", "phased", {}),
        ("lbm17_like", "streaming", {"stride": 1}),
        ("bwaves_like", "stencil", {}),
        ("cactuBSSN_like", "stencil", {}),
        ("fotonik3d_like", "streaming", {"stride": 2}),
        ("cam4_like", "phased", {}),
        ("roms_like", "stencil", {}),
        ("wrf_like", "streaming", {"stride": 1}),
    ]
    count17 = 0
    seed = 400
    for base_name, pattern, params in spec17:
        for rep in range(2):
            out.append(_spec(f"spec17.{base_name}.{rep}", "spec",
                             pattern, seed, **params))
            seed += 11
            count17 += 1
            if count17 == 20:
                break
        if count17 == 20:
            break
    return out


def _parsec_workloads() -> List[WorkloadSpec]:
    parsec = [
        ("canneal_like", "pointer_chase", {"working_set_lines": 1 << 14}),
        ("streamcluster_like", "gups", {"working_set_lines": 1 << 14}),
        ("facesim_like", "stencil", {}),
        ("fluidanimate_like", "stencil", {}),
        ("raytrace_like", "hash_probe", {"working_set_lines": 1 << 15}),
        ("blackscholes_like", "streaming", {"stride": 1}),
        ("freqmine_like", "phased", {}),
    ]
    out = []
    seed = 700
    for i in range(13):
        base_name, pattern, params = parsec[i % len(parsec)]
        out.append(_spec(f"parsec.{base_name}.{i}", "parsec",
                         pattern, seed + 13 * i, **params))
    return out


def _ligra_workloads() -> List[WorkloadSpec]:
    kernels = [
        ("BFS", {"neighbors_per_vertex": 3}),
        ("PageRank", {"neighbors_per_vertex": 6}),
        ("PageRankDelta", {"neighbors_per_vertex": 5}),
        ("BC", {"neighbors_per_vertex": 4}),
        ("Radii", {"neighbors_per_vertex": 4}),
        ("Triangle", {"neighbors_per_vertex": 8}),
        ("CF", {"neighbors_per_vertex": 5}),
    ]
    out = []
    seed = 900
    for i in range(13):
        kernel, params = kernels[i % len(kernels)]
        out.append(_spec(f"ligra.{kernel}.{i}", "ligra", "graph",
                         seed + 17 * i, **params))
    return out


def _cvp_workloads() -> List[WorkloadSpec]:
    out = []
    seed = 1200
    for i in range(25):
        if i % 4 == 0:
            # Irregular integer traces (the paper's prefetcher-adverse
            # secret_compute_int category): large random working set.
            out.append(_spec(
                f"cvp.compute_int_{i}", "cvp", "compute", seed + 19 * i,
                memory_ratio=0.10, streaming_fraction=0.2,
                mispredict_rate=0.05, working_set_lines=1 << 14,
            ))
        elif i % 2 == 0:
            # Cache-resident integer traces: small hot set, sparse misses.
            out.append(_spec(
                f"cvp.compute_int_{i}", "cvp", "compute", seed + 19 * i,
                memory_ratio=0.08, streaming_fraction=0.5,
                mispredict_rate=0.05, working_set_lines=128,
            ))
        else:
            out.append(_spec(
                f"cvp.compute_fp_{i}", "cvp", "compute", seed + 19 * i,
                memory_ratio=0.16, streaming_fraction=0.9,
                mispredict_rate=0.01, working_set_lines=1024,
            ))
    return out


@lru_cache(maxsize=1)
def evaluation_workloads() -> Tuple[WorkloadSpec, ...]:
    """The 100 evaluation workloads (paper Table 6)."""
    workloads = (
        _spec_cpu_workloads()
        + _parsec_workloads()
        + _ligra_workloads()
        + _cvp_workloads()
    )
    if len(workloads) != 100:
        raise AssertionError(f"expected 100 workloads, built {len(workloads)}")
    return tuple(workloads)


@lru_cache(maxsize=1)
def tuning_workloads() -> Tuple[WorkloadSpec, ...]:
    """20 DSE tuning workloads, disjoint from the evaluation set (§5.3)."""
    patterns = [
        ("streaming", {}),
        ("stencil", {}),
        ("pointer_chase", {"working_set_lines": 1 << 14}),
        ("hash_probe", {"working_set_lines": 1 << 14}),
        ("graph", {"neighbors_per_vertex": 4}),
        ("gups", {"working_set_lines": 1 << 13}),
        ("compute", {"memory_ratio": 0.15}),
        ("phased", {}),
        ("datacenter", {}),
        ("streaming", {"stride": 3}),
    ]
    out = []
    seed = 5000
    for i in range(20):
        pattern, params = patterns[i % len(patterns)]
        out.append(_spec(f"tune.{pattern}.{i}", "tuning", pattern,
                         seed + 23 * i, **params))
    return tuple(out)


#: the 12 DPC4/Google-like trace categories of paper Figure 21.
GOOGLE_CATEGORIES = (
    "sierra.a.3", "sierra.a.4", "sierra.a.6", "bravo.a", "arizona",
    "charlie", "delta", "merced", "tahoe", "tango", "whiskey", "yankee",
)


@lru_cache(maxsize=1)
def google_workloads() -> Tuple[WorkloadSpec, ...]:
    """Unseen datacenter-like workloads (paper Figure 21 / appendix B.3)."""
    out = []
    seed = 9000
    for i, category in enumerate(GOOGLE_CATEGORIES):
        out.append(_spec(
            f"google.{category}", "google", "datacenter", seed + 29 * i,
            irregular_fraction=0.35 + 0.05 * (i % 7),
        ))
    return tuple(out)


@lru_cache(maxsize=1)
def extended_workloads() -> Tuple[WorkloadSpec, ...]:
    """The 12 extended-family workloads (beyond the paper's Table 6).

    Three families added after the core reproduction: phase-shifting
    composites (drifting friendly/adverse blend), strided scans with
    stride drift, and producer-consumer ring traffic for sharing-heavy
    multicore mixes.  Kept in their own suite so the 100-workload
    evaluation registry — and every figure derived from it — is
    untouched.
    """
    out: List[WorkloadSpec] = []
    seed = 15000
    for i in range(4):
        out.append(_spec(
            f"ext.phase_shift.{i}", "extended", "phase_shift",
            seed + 31 * i,
            working_set_lines=1 << (13 + i % 2), phases=4 + i,
        ))
    for i in range(4):
        out.append(_spec(
            f"ext.strided_drift.{i}", "extended", "strided_drift",
            seed + 500 + 37 * i,
            base_stride=1 + i % 2, stride_span=3 + i,
            drift_every=32 << i,
        ))
    for i in range(4):
        params = dict(
            ring_lines=1 << (10 + 2 * (i % 2)),
            lag=4 << i,
            sync_every=8 << (i % 3),
        )
        if i == 3:
            # One spec pins an explicit shared region, the spelling a
            # sharing mix passes to every core, so that path is
            # golden-digested too.
            params["region_seed"] = 424242
        out.append(_spec(
            f"ext.producer_consumer.{i}", "extended", "producer_consumer",
            seed + 1000 + 41 * i, **params,
        ))
    return tuple(out)


def workloads_by_suite(suite: str) -> Tuple[WorkloadSpec, ...]:
    return tuple(w for w in evaluation_workloads() if w.suite == suite)


def find_workload(name: str) -> WorkloadSpec:
    """Resolve a workload reference: a registry name or a ``trace://``
    external source (see :mod:`repro.workloads.ingest`)."""
    if isinstance(name, str) and name.startswith("trace://"):
        from .ingest import resolve_trace_source

        return resolve_trace_source(name)
    registries = (
        evaluation_workloads() + tuning_workloads() + google_workloads()
        + extended_workloads()
    )
    for spec in registries:
        if spec.name == name:
            return spec
    raise KeyError(f"no workload named {name!r}")


def representative_subset(
    count: int,
    pool: Optional[Tuple[WorkloadSpec, ...]] = None,
) -> Tuple[WorkloadSpec, ...]:
    """A suite-balanced, deterministic subset of the evaluation workloads.

    Scaled-down experiments must keep the friendly/adverse balance of the
    full set, so the subset round-robins across suites (which map onto
    behaviour classes) rather than truncating the registry.
    """
    if pool is None:
        pool = evaluation_workloads()
    if count >= len(pool):
        return tuple(pool)
    # Stratify by (suite, pattern): pattern families map directly onto the
    # paper's friendly/adverse behaviour classes, so proportional sampling
    # over them preserves the full suite's class balance at any count.
    groups: Dict[tuple, List[WorkloadSpec]] = {}
    for spec in pool:
        groups.setdefault((spec.suite, spec.pattern), []).append(spec)
    ordered_keys = sorted(groups)
    picked: List[WorkloadSpec] = []
    cursor = {key: 0 for key in ordered_keys}
    # Largest-remainder proportional allocation, then round-robin fill.
    total = len(pool)
    shares = {
        key: count * len(groups[key]) / total for key in ordered_keys
    }
    for key in ordered_keys:
        take = int(shares[key])
        bucket = groups[key]
        step = max(1, len(bucket) // max(1, take))
        for i in range(take):
            # Centre each pick inside its stride window: families often
            # alternate behaviour classes along the registry order (e.g.
            # CVP int/fp traces), and edge-aligned picks can land on one
            # class only.
            idx = min(i * step + step // 2, len(bucket) - 1)
            if bucket[idx] not in picked:
                picked.append(bucket[idx])
                cursor[key] = idx + 1
    # Largest-remainder fill: hand the leftover slots to the groups whose
    # proportional share was truncated hardest, so no suite is starved at
    # small counts by alphabetical accident.
    remainder_order = sorted(
        ordered_keys, key=lambda key: shares[key] - int(shares[key]),
        reverse=True,
    )
    rr = 0
    while len(picked) < count:
        key = remainder_order[rr % len(remainder_order)]
        bucket = groups[key]
        i = cursor[key]
        if i < len(bucket) and bucket[i] not in picked:
            picked.append(bucket[i])
            cursor[key] = i + 1
        rr += 1
        if rr > 10 * count + len(ordered_keys):
            picked.extend(
                w for w in pool if w not in picked
            )
            break
    return tuple(picked[:count])


def build_trace(spec: WorkloadSpec, length: int) -> Trace:
    """Build (and memoize) the trace for a workload spec at one length.

    The single cached entry point for trace materialization: resolves
    through the process-wide content-addressed
    :class:`~repro.workloads.tracecache.TraceCache` (in-memory LRU plus
    the optional ``REPRO_TRACE_DIR`` on-disk store), so engine workers
    and repeated figure drivers stop regenerating identical traces.
    """
    from .tracecache import trace_cache

    return trace_cache().get_or_build(spec, length)


def stream_trace(
    spec: WorkloadSpec, length: int, block_size: int
) -> TraceStream:
    """Serve the trace for ``(spec, length)`` as fixed-size blocks.

    The streaming analogue of :func:`build_trace`: resolves through the
    process-wide cache's tiers (whole-trace memory/disk entries are
    re-blocked; otherwise the trace is emitted cold, block by block,
    without ever materializing it — see
    :meth:`~repro.workloads.tracecache.TraceCache.stream`).
    """
    from .tracecache import trace_cache

    return trace_cache().stream(spec, length, block_size)
