"""Simulation-throughput benchmark harness (``repro bench``).

Measures the throughput of the three stages every figure regeneration is
bound by on a cold store, and of the result store a warm one replays, in
four phases (``--phase``):

* ``sim`` — *simulated instructions per second* for a small matrix of
  single-core (workload x policy) cells on the paper's default CD1
  design;
* ``traces`` — *trace-build* throughput (instructions emitted per
  second) of the vectorized emitters, per generator family;
* ``multicore`` — aggregate simulated instructions per second for
  shared-LLC/DRAM mixes through :class:`~repro.sim.multicore.
  MultiCoreSimulator` (traces prebuilt, so the cell isolates the
  multi-core event loop);
* ``store`` — *payloads per second* through a temporary
  :class:`~repro.engine.store.ResultStore`: Fig 7-shaped run payloads
  encoded and written, then replayed through a warm engine (reading
  IPC, not the per-epoch telemetry).

Everything is written to ``BENCH_sim_throughput.json``.  Three kinds of
numbers live in the output:

* per-cell ``ips`` — raw instructions/second on this machine;
* ``ips_per_mop`` — the same normalized by a pure-Python calibration
  score (million calibration ops/second), so measurements taken on
  machines of different speeds are comparable;
* ``reference`` — the checked-in pre-optimization (seed) measurements
  (``benchmarks/throughput_seed_baseline.json``) plus the per-cell and
  geomean speedup of the current core against them.

``repro bench --check BASELINE`` additionally compares the normalized
single-core geomean against a checked-in baseline file and exits
non-zero if it regressed by more than ``--tolerance`` (CI's
``bench-smoke`` job).

Every run also appends a compact provenance-stamped record (git commit,
dirty flag, hostname, normalized geomean) to ``BENCH_history.jsonl``;
``repro bench --trend`` renders that file as the cross-PR throughput
trajectory without re-benchmarking anything.
"""

from __future__ import annotations

import json
import math
import pathlib
import platform
import tempfile
import time
from typing import List, Optional, Sequence, Tuple

BENCH_SCHEMA = 2

#: schema of one ``BENCH_history.jsonl`` line (see :func:`history_entry`).
HISTORY_SCHEMA = 1

PHASES = ("sim", "traces", "multicore", "store")

#: Default benchmark matrix: one streaming, one pointer-chasing, one
#: graph workload — the memory behaviours that stress different parts of
#: the hot path — under the uncoordinated and the Athena-coordinated
#: configurations.
DEFAULT_WORKLOADS = (
    "spec06.libquantum_like.0",   # streaming: prefetcher-heavy
    "spec06.mcf_like.0",          # pointer chase: dependent-load bound
    "ligra.BFS.0",                # graph: irregular + bursty
)
DEFAULT_POLICIES = ("none", "athena")

#: Trace-build phase: every generator family; the acceptance families
#: (streaming/stencil/gups) first so ``--quick`` keeps them.
TRACE_FAMILIES = (
    "streaming", "stencil", "gups", "pointer_chase", "hash_probe",
    "graph", "compute", "phased", "datacenter", "phase_shift",
    "strided_drift", "producer_consumer",
)
TRACE_LENGTH = 100_000
TRACE_SEED = 1234

#: Streaming cell: build + simulate throughput at a trace length the
#: materialized bench path never attempts (4x its largest build; the
#: trace never exists in memory — peak is O(STREAM_BLOCK)).
STREAM_LENGTH = 400_000
STREAM_BLOCK = 4_096

#: Multicore phase: shared-LLC/DRAM mixes at two and four cores,
#: uncoordinated and TLP-coordinated.
DEFAULT_MIXES = (
    (("spec06.libquantum_like.0", "spec06.mcf_like.0"), "none"),
    (("spec06.libquantum_like.0", "spec06.mcf_like.0",
      "ligra.BFS.0", "spec06.xalancbmk_like.0"), "none"),
    (("spec06.libquantum_like.0", "spec06.mcf_like.0",
      "ligra.BFS.0", "spec06.xalancbmk_like.0"), "tlp"),
)

#: Store phase: run payloads shaped like a Fig 7 Athena run (40 epochs:
#: a 12k-instruction trace at epoch length 300).
STORE_PAYLOADS = 400
STORE_TRACE_LENGTH = 12_000
STORE_EPOCH_LENGTH = 300

#: Checked-in pre-optimization measurements (recorded on the machine that
#: landed the SoA core), used as the before/after reference in reports.
SEED_BASELINE_PATH = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks" / "throughput_seed_baseline.json"
)


def _calibrate(repeats: int = 3) -> float:
    """Machine-speed score in million calibration ops/second.

    The loop mixes integer arithmetic, list indexing and branching — the
    same kind of work the interpreter does in the simulator hot path —
    so the score tracks how fast *this* machine runs the simulator, and
    ``ips / score`` is comparable across machines.
    """
    n = 200_000
    best = math.inf
    for _ in range(repeats):
        buf = [0] * 1024
        acc = 0
        t0 = time.perf_counter()
        for i in range(n):
            j = i & 1023
            v = buf[j]
            if v > acc:
                acc = v - acc
            else:
                acc = acc + (i & 7)
            buf[j] = acc & 0xFFFF
        best = min(best, time.perf_counter() - t0)
    return n / best / 1e6


def measure_cell(
    workload: str,
    policy: str,
    design_name: str,
    trace_length: int,
    epoch_length: int,
    repeats: int,
) -> dict:
    """Time cold single-core runs of one (workload, policy) cell.

    The trace and hierarchy are rebuilt for every repeat (a cold run),
    but only ``Simulator.run`` is inside the timer: trace *generation*
    throughput is a separate concern.  Reports the best repeat.
    """
    from repro.engine.jobs import _build_policy
    from repro.experiments.configs import CacheDesign, build_hierarchy
    from repro.sim.simulator import Simulator
    from repro.workloads.suites import build_trace, find_workload

    spec = find_workload(workload)
    design = getattr(CacheDesign, design_name)()
    best = math.inf
    result = None
    for _ in range(repeats):
        trace = build_trace(spec, trace_length)
        hierarchy = build_hierarchy(design)
        pol = _build_policy(policy, None) if policy != "none" else None
        sim = Simulator(trace, hierarchy, policy=pol,
                        epoch_length=epoch_length, warmup_fraction=0.35)
        t0 = time.perf_counter()
        result = sim.run()
        best = min(best, time.perf_counter() - t0)
    return {
        "workload": workload,
        "policy": policy,
        "design": design_name,
        "trace_length": trace_length,
        "measured_instructions": result.instructions,
        "seconds": best,
        "ips": trace_length / best,
    }


def measure_trace_cell(family: str, trace_length: int, repeats: int) -> dict:
    """Time cold trace builds of one generator family (best of
    ``repeats``).

    Builds the spec directly — the trace cache is not involved, so
    this is genuine build throughput.
    """
    from repro.workloads.suites import WorkloadSpec

    spec = WorkloadSpec("bench", "bench", family, TRACE_SEED)
    spec.build(2_000)  # warm module paths
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        spec.build(trace_length)
        best = min(best, time.perf_counter() - t0)
    return {
        "family": family,
        "trace_length": trace_length,
        "seconds": best,
        "ips": trace_length / best,
    }


def measure_streaming_cell(trace_length: int, block_size: int) -> dict:
    """Time a streamed cold build, a materialized cold build of the same
    trace, and a streamed simulation.

    Bypasses the trace cache (a fresh uncached stream or build per
    timing), so every number is genuine throughput: the generators'
    vectorized sub-batches re-blocked for the streamed build, the same
    sub-batches concatenated for the materialized one, and the
    block-windowed ``Simulator`` loop for the run.
    ``build_vs_materialized`` is streamed ÷ materialized build ips.
    """
    from repro.experiments.configs import CacheDesign, build_hierarchy
    from repro.sim.simulator import Simulator
    from repro.workloads.suites import find_workload

    spec = find_workload(DEFAULT_WORKLOADS[0])
    rows = 0
    t0 = time.perf_counter()
    for block in spec.stream(trace_length, block_size):
        rows += len(block)
    build_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    materialized = len(spec.build(trace_length))
    materialized_seconds = time.perf_counter() - t0
    sim = Simulator(
        spec.stream(trace_length, block_size),
        build_hierarchy(CacheDesign.cd1()),
        policy=None,
        epoch_length=max(1, trace_length // 40),
        warmup_fraction=0.2,
    )
    t0 = time.perf_counter()
    sim.run()
    sim_seconds = time.perf_counter() - t0
    build_ips = rows / build_seconds
    materialized_ips = materialized / materialized_seconds
    return {
        "workload": spec.name,
        "trace_length": rows,
        "block_size": block_size,
        "build_seconds": build_seconds,
        "build_ips": build_ips,
        "materialized_build_seconds": materialized_seconds,
        "materialized_build_ips": materialized_ips,
        "build_vs_materialized": build_ips / materialized_ips,
        "sim_seconds": sim_seconds,
        "sim_ips": rows / sim_seconds,
    }


def measure_multicore_cell(
    workloads: Tuple[str, ...],
    policy: str,
    design_name: str,
    trace_length: int,
    epoch_length: int,
    repeats: int,
) -> dict:
    """Time cold multi-core runs of one (mix, policy) cell.

    Traces are prebuilt (through the trace cache) before the timer
    starts, so the cell isolates the multi-core event loop + shared
    LLC/DRAM machinery.  ``ips`` aggregates over all cores.
    """
    from repro.engine.jobs import MixRequest
    from repro.experiments.configs import CacheDesign
    from repro.workloads.suites import build_trace, find_workload

    specs = tuple(find_workload(name) for name in workloads)
    for spec in specs:
        build_trace(spec, trace_length)
    request = MixRequest(
        workloads=specs,
        trace_length=trace_length,
        design=getattr(CacheDesign, design_name)(),
        policy_name=policy,
        epoch_length=epoch_length,
        warmup_fraction=0.2,
    )
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        request.execute()
        best = min(best, time.perf_counter() - t0)
    total = trace_length * len(specs)
    return {
        "workloads": list(workloads),
        "policy": policy,
        "design": design_name,
        "cores": len(specs),
        "trace_length": trace_length,
        "seconds": best,
        "ips": total / best,
    }


def measure_store_cell(payloads: int, repeats: int) -> dict:
    """Time ``payloads`` run results through a fresh temporary
    :class:`~repro.engine.store.ResultStore` (best of ``repeats``).

    One Athena result is simulated untimed, then each repeat encodes
    and ``put``s it under the keys of ``payloads`` requests that differ
    only in the agent seed (the write half, as a cold run stores its
    results), and replays every request through a fresh
    :class:`~repro.engine.api.Engine` on that store, reading only IPC
    (the read half: a warm replay's lookup, which parses each run's
    head and leaves its counters and compressed epoch history
    unparsed).
    ``row_bytes`` is the mean stored size of a run row.
    """
    from dataclasses import replace

    from repro.core.config import AthenaConfig
    from repro.engine.api import Engine
    from repro.engine.jobs import RunRequest, encode_result
    from repro.engine.store import ResultStore
    from repro.experiments.configs import CacheDesign
    from repro.workloads.suites import find_workload

    request = RunRequest(
        spec=find_workload(DEFAULT_WORKLOADS[2]),
        trace_length=STORE_TRACE_LENGTH,
        design=CacheDesign.cd1(),
        policy_name="athena",
        epoch_length=STORE_EPOCH_LENGTH,
    )
    result = request.execute()
    requests = [replace(request, athena_config=AthenaConfig(seed=seed))
                for seed in range(payloads)]
    keys = [request.key() for request in requests]
    best_write = best_read = math.inf
    for _ in range(repeats):
        with tempfile.TemporaryDirectory() as tmp:
            store = ResultStore(pathlib.Path(tmp) / "store.sqlite")
            with Engine(store=store, jobs=1) as engine:
                t0 = time.perf_counter()
                for key in keys:
                    store.put(key, encode_result(result))
                t1 = time.perf_counter()
                for replayed in engine.run_many(requests):
                    replayed.ipc
                t2 = time.perf_counter()
                row_bytes = store.mean_row_bytes()
        best_write = min(best_write, t1 - t0)
        best_read = min(best_read, t2 - t1)
    return {
        "payloads": payloads,
        "epochs": len(result.epochs),
        "write_seconds": best_write,
        "read_seconds": best_read,
        "read_payloads_per_s": payloads / best_read,
        "payloads_per_s": payloads / (best_write + best_read),
        "row_bytes": row_bytes,
    }


def geomean(values: List[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_bench(
    workloads: Tuple[str, ...] = DEFAULT_WORKLOADS,
    policies: Tuple[str, ...] = DEFAULT_POLICIES,
    design: str = "cd1",
    trace_length: int = 24_000,
    epoch_length: int = 600,
    repeats: int = 3,
    quick: bool = False,
    phases: Sequence[str] = PHASES,
    reference_path: Optional[pathlib.Path] = SEED_BASELINE_PATH,
    progress=None,
) -> dict:
    """Run the benchmark matrix; returns the JSON-able report."""
    unknown = [p for p in phases if p not in PHASES]
    if unknown:
        raise KeyError(f"unknown bench phases {unknown}; valid: {PHASES}")
    trace_families = TRACE_FAMILIES
    trace_build_length = TRACE_LENGTH
    mixes = DEFAULT_MIXES
    store_payloads = STORE_PAYLOADS
    if quick:
        workloads = workloads[:2]
        trace_length = min(trace_length, 12_000)
        epoch_length = min(epoch_length, 300)
        repeats = 1
        trace_families = TRACE_FAMILIES[:3]
        trace_build_length = 24_000
        mixes = DEFAULT_MIXES[:1]
        store_payloads = STORE_PAYLOADS // 8

    from repro.obs.journal import provenance

    calibration = _calibrate(1 if quick else 3)
    report = {
        "schema": BENCH_SCHEMA,
        "unit": "simulated instructions per second (cold Simulator.run)",
        "quick": quick,
        "phases": list(phases),
        "timestamp": time.time(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "calibration_mops": calibration,
        # run provenance: which commit (and how clean a tree) produced
        # these numbers, so history entries are attributable.  Resolved
        # against the source tree, not the cwd — the benchmark measures
        # this code wherever the user happens to invoke it from.
        **provenance(pathlib.Path(__file__).resolve().parent),
    }

    cells = []
    if "sim" in phases:
        for workload in workloads:
            for policy in policies:
                if progress is not None:
                    progress(workload, policy)
                cell = measure_cell(workload, policy, design,
                                    trace_length, epoch_length, repeats)
                cell["ips_per_mop"] = cell["ips"] / calibration
                cells.append(cell)
        report["cells"] = cells
        report["geomean_ips"] = geomean([c["ips"] for c in cells])
        report["geomean_ips_per_mop"] = geomean(
            [c["ips_per_mop"] for c in cells]
        )

    if "traces" in phases:
        trace_cells = []
        for family in trace_families:
            if progress is not None:
                progress("trace-build", family)
            cell = measure_trace_cell(
                family, trace_build_length, max(repeats, 5)
            )
            cell["ips_per_mop"] = cell["ips"] / calibration
            trace_cells.append(cell)
        report["trace_cells"] = trace_cells

        if progress is not None:
            progress("trace-stream", f"{DEFAULT_WORKLOADS[0]}")
        stream_length = 50_000 if quick else STREAM_LENGTH
        streaming_cell = measure_streaming_cell(stream_length, STREAM_BLOCK)
        streaming_cell["sim_ips_per_mop"] = (
            streaming_cell["sim_ips"] / calibration
        )
        report["streaming_cell"] = streaming_cell
        report["streaming_sim_ips"] = streaming_cell["sim_ips"]

    if "multicore" in phases:
        multicore_cells = []
        for mix_workloads, policy in mixes:
            if progress is not None:
                progress(f"multicore x{len(mix_workloads)}", policy)
            cell = measure_multicore_cell(
                mix_workloads, policy, design,
                trace_length, epoch_length, repeats,
            )
            cell["ips_per_mop"] = cell["ips"] / calibration
            multicore_cells.append(cell)
        report["multicore_cells"] = multicore_cells

    if "store" in phases:
        if progress is not None:
            progress("store", f"{store_payloads} payloads")
        store_cell = measure_store_cell(store_payloads, repeats)
        store_cell["payloads_per_mop"] = (
            store_cell["payloads_per_s"] / calibration
        )
        report["store_cell"] = store_cell
        report["store_payloads_per_s"] = store_cell["payloads_per_s"]
        report["store_read_payloads_per_s"] = \
            store_cell["read_payloads_per_s"]
        report["store_row_bytes"] = store_cell["row_bytes"]

    if reference_path is not None and pathlib.Path(reference_path).exists():
        reference = json.loads(pathlib.Path(reference_path).read_text())
        report["reference"] = {
            "path": str(reference_path),
            "geomean_ips": reference.get("geomean_ips"),
            "cells": reference.get("cells"),
        }
        ref_by_key = {
            (c["workload"], c["policy"]): c
            for c in reference.get("cells", ())
        }
        speedups = []
        for cell in cells:
            ref = ref_by_key.get((cell["workload"], cell["policy"]))
            # Only compare like-for-like cells (a --quick run shortens the
            # trace, which shifts ips independently of core speed).
            if (ref and ref.get("ips")
                    and ref.get("trace_length") == cell["trace_length"]):
                cell["speedup_vs_reference"] = cell["ips"] / ref["ips"]
                speedups.append(cell["speedup_vs_reference"])
        if speedups:
            report["geomean_speedup_vs_reference"] = geomean(speedups)
        ref_mc = {
            (tuple(c["workloads"]), c["policy"]): c
            for c in reference.get("multicore_cells", ())
        }
        for cell in report.get("multicore_cells", ()):
            ref = ref_mc.get((tuple(cell["workloads"]), cell["policy"]))
            if (ref and ref.get("ips")
                    and ref.get("trace_length") == cell["trace_length"]):
                cell["speedup_vs_reference"] = cell["ips"] / ref["ips"]
    return report


def check_regression(report: dict, baseline_path: pathlib.Path,
                     tolerance: float = 0.30) -> Tuple[bool, str]:
    """Compare the normalized geomean against a checked-in baseline.

    Returns ``(ok, message)``.  The comparison uses the
    calibration-normalized score so a slower CI machine does not read as
    a regression; ``tolerance`` is the allowed fractional slowdown.
    """
    baseline = json.loads(pathlib.Path(baseline_path).read_text())
    base_score = baseline.get("geomean_ips_per_mop")
    if not base_score:
        return False, f"baseline {baseline_path} has no geomean_ips_per_mop"
    if "geomean_ips_per_mop" not in report:
        return False, "report has no single-core cells (ran without " \
                      "--phase sim?); nothing to check"
    # Refuse apples-to-oranges comparisons: the normalized geomean is only
    # meaningful against a baseline measured over the same cell matrix.
    def _matrix(rep):
        return sorted(
            (c["workload"], c["policy"], c["trace_length"])
            for c in rep.get("cells", ())
        )
    if _matrix(report) != _matrix(baseline):
        return False, (
            f"cell matrix mismatch vs {baseline_path} (different workloads, "
            f"policies, or trace lengths — e.g. --quick vs full); "
            f"re-record the baseline with the same bench invocation"
        )
    current = report["geomean_ips_per_mop"]
    floor = base_score * (1.0 - tolerance)
    ratio = current / base_score
    message = (
        f"normalized throughput {current:,.1f} vs baseline "
        f"{base_score:,.1f} ({ratio:.2f}x, floor {floor:,.1f})"
    )
    return current >= floor, message


# ---------------------------------------------------------------------------
# cross-run history (BENCH_history.jsonl, ``repro bench --trend``)
# ---------------------------------------------------------------------------

def history_entry(report: dict) -> dict:
    """The compact cross-run record appended to ``BENCH_history.jsonl``:
    provenance plus the headline geomeans, no per-cell detail."""
    entry = {
        "schema": HISTORY_SCHEMA,
        "timestamp": report.get("timestamp"),
        "quick": report.get("quick"),
        "hostname": report.get("hostname"),
        "git_commit": report.get("git_commit"),
        "git_dirty": report.get("git_dirty"),
        "calibration_mops": report.get("calibration_mops"),
    }
    for key in ("geomean_ips", "geomean_ips_per_mop",
                "geomean_speedup_vs_reference",
                "streaming_sim_ips", "store_payloads_per_s",
                "store_read_payloads_per_s", "store_row_bytes"):
        if key in report:
            entry[key] = report[key]
    return entry


def append_history(report: dict, path: pathlib.Path) -> dict:
    """Append one run's :func:`history_entry` to the history JSONL."""
    path = pathlib.Path(path)
    if path.parent != pathlib.Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    entry = history_entry(report)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, separators=(",", ":")) + "\n")
    return entry


def load_history(path: pathlib.Path) -> List[dict]:
    """Parse a history JSONL, oldest first; [] for a missing file.
    Unparseable lines are skipped (a torn tail from a crashed append
    must not orphan the rest of the history)."""
    path = pathlib.Path(path)
    if not path.exists():
        return []
    entries = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(entry, dict):
            entries.append(entry)
    return entries


_SPARK = "▁▂▃▄▅▆▇█"


def _sparkline(values: List[float]) -> str:
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK[3] * len(values)
    scale = (len(_SPARK) - 1) / (hi - lo)
    return "".join(_SPARK[round((v - lo) * scale)] for v in values)


def format_trend(entries: List[dict]) -> str:
    """The cross-run throughput trajectory (``repro bench --trend``).

    Rows are normalized (calibration-relative) geomeans, so runs from
    machines of different speeds still chart one trajectory; a ``*``
    after the commit marks a dirty working tree.
    """
    scored = [e for e in entries if e.get("geomean_ips_per_mop")]
    if not scored:
        return "bench history: no runs with a normalized geomean yet"
    lines = [
        f"bench history: {len(scored)} runs (normalized geomean ips/Mop)",
        "  " + _sparkline([e["geomean_ips_per_mop"] for e in scored]),
        "",
        f"{'commit':12s} {'when':>16s} {'norm':>10s} {'vs prev':>8s}",
    ]
    prev = None
    for entry in scored:
        commit = (entry.get("git_commit") or "?")[:10]
        if entry.get("git_dirty"):
            commit += "*"
        ts = entry.get("timestamp")
        when = time.strftime("%Y-%m-%d %H:%M", time.localtime(ts)) \
            if ts else "-"
        score = entry["geomean_ips_per_mop"]
        delta = f"{score / prev:.2f}x" if prev else "-"
        quick = " (quick)" if entry.get("quick") else ""
        lines.append(
            f"{commit:12s} {when:>16s} {score:>10,.1f} {delta:>8s}{quick}"
        )
        prev = score
    return "\n".join(lines)


def format_report(report: dict) -> str:
    """Human-readable tables for the CLI, one per measured phase."""
    lines = []
    if "cells" in report:
        lines.append(
            f"{'workload':32s} {'policy':8s} {'ips':>12s} "
            f"{'norm':>10s} {'vs seed':>8s}"
        )
        for cell in report["cells"]:
            speedup = cell.get("speedup_vs_reference")
            lines.append(
                f"{cell['workload']:32s} {cell['policy']:8s} "
                f"{cell['ips']:>12,.0f} {cell['ips_per_mop']:>10,.1f} "
                f"{speedup and f'{speedup:.2f}x' or '-':>8s}"
            )
        lines.append(
            f"{'geomean':32s} {'':8s} {report['geomean_ips']:>12,.0f} "
            f"{report['geomean_ips_per_mop']:>10,.1f} "
            + (
                f"{report['geomean_speedup_vs_reference']:>7.2f}x"
                if "geomean_speedup_vs_reference" in report else f"{'-':>8s}"
            )
        )
    if "trace_cells" in report:
        if lines:
            lines.append("")
        lines.append(
            f"{'trace build':32s} {'length':>8s} {'ips':>12s} "
            f"{'norm':>10s}"
        )
        for cell in report["trace_cells"]:
            lines.append(
                f"{cell['family']:32s} {cell['trace_length']:>8d} "
                f"{cell['ips']:>12,.0f} {cell['ips_per_mop']:>10,.1f}"
            )
    if "streaming_cell" in report:
        cell = report["streaming_cell"]
        if lines:
            lines.append("")
        lines.append(
            f"{'streamed (block ' + str(cell['block_size']) + ')':32s} "
            f"{'length':>8s} {'build ips':>12s} {'sim ips':>12s} "
            f"{'vs built':>9s}"
        )
        lines.append(
            f"{cell['workload']:32s} {cell['trace_length']:>8d} "
            f"{cell['build_ips']:>12,.0f} {cell['sim_ips']:>12,.0f} "
            f"{cell['build_vs_materialized']:>8.2f}x"
        )
    if "multicore_cells" in report:
        if lines:
            lines.append("")
        lines.append(
            f"{'multicore mix':32s} {'policy':8s} {'ips':>12s} "
            f"{'norm':>10s} {'vs seed':>8s}"
        )
        for cell in report["multicore_cells"]:
            label = f"{cell['cores']}-core mix"
            speedup = cell.get("speedup_vs_reference")
            lines.append(
                f"{label:32s} {cell['policy']:8s} "
                f"{cell['ips']:>12,.0f} {cell['ips_per_mop']:>10,.1f} "
                f"{speedup and f'{speedup:.2f}x' or '-':>8s}"
            )
    if "store_cell" in report:
        cell = report["store_cell"]
        if lines:
            lines.append("")
        lines.append(
            f"{'result store':32s} {'epochs':>8s} {'payloads/s':>12s} "
            f"{'norm':>10s} {'read/s':>12s} {'row bytes':>10s}"
        )
        lines.append(
            f"{str(cell['payloads']) + ' run payloads':32s} "
            f"{cell['epochs']:>8d} {cell['payloads_per_s']:>12,.0f} "
            f"{cell['payloads_per_mop']:>10,.1f} "
            f"{cell['read_payloads_per_s']:>12,.0f} "
            f"{cell['row_bytes']:>10,.0f}"
        )
    lines.append(f"calibration: {report['calibration_mops']:.1f} Mops/s")
    return "\n".join(lines)
