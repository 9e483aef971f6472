"""Repository benchmark: Figure 7 and Figure 15 campaigns and long
streamed runs, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload fig7_cd1 --seed 0 --seconds 30 --trace 0

``--trace 0`` times cold (and warm) passes for ``--seconds``, scaled to
a reference host speed (``perfbench/calibration.py``), and prints the
end-to-end metrics; ``--trace 1`` runs one untraced and one traced pass
and prints the per-layer metrics.  Every pass runs in-process at
``jobs=1``.  Either way the last line of standard output is one JSON
object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The metric names and units are the ones ``BENCHMARK.json`` lists.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

#: warm passes repeat after each cold pass until they took this long
WARM_BUDGET_S = 0.5
MIN_WARM_PASSES = 5
#: fresh processes timed to measure ``setup_s``, at least (one before
#: each cold pass, so the probes spread over the whole run)
SETUP_PROBES = 5

#: sums of these SimStats fields over every result of the traced pass
MODEL_COUNTERS = (
    "instructions", "cycles", "l1d_hits", "l1d_misses", "l2c_hits",
    "l2c_misses", "llc_hits", "llc_misses", "prefetches_issued",
    "prefetches_useful", "ocp_predictions", "ocp_correct",
    "dram_demand_requests", "dram_prefetch_requests", "dram_ocp_requests",
    "dram_writeback_requests",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the registry's, 0)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process and of its largest waited-for
    child (the setup probes), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def probe_setup(args) -> float:
    """Time of a fresh process from its start to its first timed pass."""
    command = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--probe-setup", "--workload", args.workload,
               "--seed", str(args.seed)]
    start = time.perf_counter()
    subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def warm_passes(workload, pass_dir, cold, checks, scaled=False) -> list:
    """Warm passes over ``pass_dir``, repeated until they took
    ``WARM_BUDGET_S``; each is checked against the cold pass."""
    warms = []
    while sum(warm.wall_s for warm in warms) < WARM_BUDGET_S or \
            len(warms) < MIN_WARM_PASSES:
        warm = workload.run_pass(pass_dir, scaled)
        checks.warm(cold, warm)
        warms.append(warm)
    return warms


# ---------------------------------------------------------------------------
# timed run: end-to-end metrics
# ---------------------------------------------------------------------------

def timed_run(args, workload, workdir: pathlib.Path):
    from workloads import (Checks, install_checkpoints, payload_digest,
                           store_payloads)

    install_checkpoints()
    checks = Checks()
    colds, warms, digests, setups = [], [], [], []
    start = time.perf_counter()
    last = 0.0  # duration of the last pass with its warm passes and checks
    while not colds or time.perf_counter() - start + last <= args.seconds:
        pass_start = time.perf_counter()
        setups.append(probe_setup(args))
        pass_dir = workdir / f"pass-{len(colds)}"
        cold = workload.run_pass(pass_dir, scaled=True)
        checks.cold(workload, cold)
        if colds:
            checks.check(cold.table == colds[0].table,
                         "cold tables differ between passes")
        colds.append(cold)
        digests.append(payload_digest(store_payloads(pass_dir)))
        warms += warm_passes(workload, pass_dir, cold, checks, scaled=True)
        shutil.rmtree(pass_dir)
        last = time.perf_counter() - pass_start
    rss = peak_rss_mb()
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(args))
    reference = workload.reference()
    if reference:
        expected = payload_digest(reference)
        for digest in digests:
            checks.check(digest == expected,
                         "streamed results differ from materialized runs")
    cold_s = statistics.median(cold.scaled_s for cold in colds)
    metrics = {
        "scaled_wall_s": cold_s,
        "scaled_sim_ips": workload.expected_executed
        * workload.instructions_per_request / cold_s,
        "scaled_warm_s": statistics.median(warm.scaled_s for warm in warms),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setups),
    }
    print(f"{workload.name}: {len(colds)} cold passes "
          f"(host s: {', '.join(f'{c.wall_s:.4g}' for c in colds)}), "
          f"{len(warms)} warm passes (median host s "
          f"{statistics.median(w.wall_s for w in warms):.4g}), "
          f"seed {args.seed}")
    return checks, metrics


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

def model_counters(payloads) -> dict:
    """Modelled counters summed over every result (each core of a mix)."""
    totals = dict.fromkeys(MODEL_COUNTERS, 0)
    for payload in payloads.values():
        cores = payload["cores"] if payload["kind"] == "mix" else [payload]
        for core in cores:
            for name in MODEL_COUNTERS:
                totals[name] += core["stats"][name]
    return totals


def print_profile(title: str, profile: dict) -> None:
    """Per-layer table; the self times plus ``unattributed_s`` sum to the
    pass's wall time."""
    print(f"{title}: wall {profile['wall_s']:.4f} s")
    print(f"  {'layer':<34} {'calls':>10} {'s':>10} {'self_s':>10}")
    layers = sorted(profile["layers"].items(),
                    key=lambda item: -item[1]["self_s"])
    for name, layer in layers:
        if layer["calls"]:
            print(f"  {name:<34} {layer['calls']:>10} "
                  f"{layer['s']:>10.4f} {layer['self_s']:>10.4f}")
    print(f"  {'unattributed_s':<34} {'':>10} {'':>10} "
          f"{profile['unattributed_s']:>10.4f}")
    total = profile["unattributed_s"] + sum(
        layer["self_s"] for layer in profile["layers"].values())
    print(f"  {'sum':<34} {'':>10} {'':>10} {total:>10.4f}")


def flatten(profile: dict, prefix: str = "") -> dict:
    out = {f"{prefix}unattributed_s": profile["unattributed_s"]}
    for name, layer in profile["layers"].items():
        for key, value in layer.items():
            out[f"{prefix}{name}.{key}"] = value
    return out


def traced_run(args, workload, workdir: pathlib.Path):
    from tracer import Tracer, install
    from workloads import Checks, payload_digest, store_payloads

    checks = Checks()
    untraced_dir = workdir / "untraced"
    untraced = workload.run_pass(untraced_dir)
    checks.cold(workload, untraced)
    warm_s = min(warm.wall_s for warm in
                 warm_passes(workload, untraced_dir, untraced, checks))
    expected = payload_digest(store_payloads(untraced_dir))

    tracer = Tracer()
    install(tracer)
    traced_dir = workdir / "traced"
    cold, cold_profile = tracer.run(
        "cold", lambda: workload.run_pass(traced_dir))
    trace_keys = len(tracer.trace_keys)
    warm, warm_profile = tracer.run(
        "warm", lambda: workload.run_pass(traced_dir))
    checks.cold(workload, cold)
    checks.warm(cold, warm)
    payloads = store_payloads(traced_dir)
    checks.check(payload_digest(payloads) == expected and
                 cold.table == untraced.table,
                 "traced results differ from untraced results")

    print_profile(f"{workload.name} traced cold pass", cold_profile)
    print_profile(f"{workload.name} traced warm pass", warm_profile)
    out_dir = WORK / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{workload.name}-seed{args.seed}.json").write_text(
        json.dumps({"cold": cold_profile, "warm": warm_profile,
                    "spans": tracer.records}, indent=1))

    model = model_counters(payloads)
    layers = cold_profile["layers"]
    metrics = flatten(cold_profile)
    metrics.update(flatten(warm_profile, "warm."))
    metrics.update({f"model.{name}": value for name, value in model.items()})
    metrics.update({
        "model.ipc": ratio(model["instructions"], model["cycles"]),
        "prefetchers.issued": model["prefetches_issued"],
        "prefetchers.useful_ratio": ratio(model["prefetches_useful"],
                                          model["prefetches_issued"]),
        "ocp.accuracy": ratio(model["ocp_correct"],
                              model["ocp_predictions"]),
        "workloads.trace_cache.hits": cold.cache.hits
        + cold.cache.disk_hits + cold.cache.chunk_hits,
        "workloads.trace_cache.builds": cold.cache.builds,
        "workloads.trace_cache.build_ratio": ratio(trace_keys,
                                                   cold.cache.builds),
        "workloads.stream.block_wait_s":
            layers["workloads.stream.block_wait"]["s"],
        "engine.overhead_s": cold_profile["wall_s"]
        - layers["engine.request_execute"]["s"],
        "engine.executed": cold.executed,
        "engine.store_hits": warm.store_hits,
        "engine.retries": cold.retries + warm.retries,
        "engine.failures": cold.failures + warm.failures,
        "trace.wall_s": cold_profile["wall_s"],
        "warm_s": warm_s,
        "warm.wall_s": warm_profile["wall_s"],
        "trace.untraced_wall_s": untraced.wall_s,
        "trace.overhead_ratio": ratio(cold_profile["wall_s"],
                                      untraced.wall_s) - 1.0,
    })
    return checks, metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    # Only the benchmark decides the program's configuration.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.seed is None:
        args.seed = DEFAULT_SEED
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    if args.probe_setup:
        return 0

    workdir = WORK / f"run-{os.getpid()}"
    try:
        if args.trace:
            checks, values = traced_run(args, workload, workdir)
            wanted = spec["per_layer"]
        else:
            checks, values = timed_run(args, workload, workdir)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values["error_rate"] = ratio(checks.failed, checks.attempted)
    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        if not args.trace:
            print(f"{metric['name']:>14} {value:.6g} {metric['unit']}")
    print(f"error_rate {values['error_rate']:g} "
          f"({checks.failed} failed of {checks.attempted} operations)")
    for message in checks.messages:
        print(f"check failed: {message}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
