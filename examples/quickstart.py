#!/usr/bin/env python3
"""Quickstart: run one workload under Athena and the baselines.

This is the 60-second tour of the SDK: open a :class:`repro.api.Session`,
describe each measurement as a typed :class:`repro.api.RunSpec` (design
variant × coordination policy), and read tidy results back.  Every run
resolves through the engine's content-addressed cache, so re-running
this script against a store
(``Session(Engine(store=ResultStore(path)))``) executes nothing.

Run:
    python examples/quickstart.py [workload] [trace_length]
"""

import sys

from repro.api import RunSpec, Session
from repro.workloads.suites import build_trace, find_workload


def run(workload_name: str, length: int) -> None:
    spec = find_workload(workload_name)
    trace = build_trace(spec, length)
    print(f"workload: {spec.name}  (suite={spec.suite}, "
          f"pattern={spec.pattern}, {len(trace)} instructions)")
    print(f"memory intensity: {trace.memory_intensity():.2f}, "
          f"footprint: {trace.footprint_lines()} lines")
    print()

    configs = [
        ("baseline (no PF, no OCP)", "baseline", "none"),
        ("POPET only", "ocp-only", "none"),
        ("Pythia only", "pf-only", "none"),
        ("Naive (both, uncoordinated)", "full", "none"),
        ("HPAC", "full", "hpac"),
        ("MAB", "full", "mab"),
        ("Athena", "full", "athena"),
    ]

    epoch_length = max(100, length // 80)
    print(f"{'configuration':<30} {'IPC':>8} {'speedup':>8} "
          f"{'LLC MPKI':>9} {'PF acc':>7} {'OCP acc':>8}")
    with Session() as session:
        for label, variant, policy in configs:
            result = session.run(RunSpec(
                workload=workload_name,
                design="cd1",
                variant=variant,
                policy=policy,
                trace_length=length,
                epoch_length=epoch_length,
            ))
            # IPC/MPKI/accuracy all from the representative run so the
            # row is self-consistent; speedup stays the seed-averaged
            # metric the paper reports (they differ only for athena).
            representative = result.result
            stats = representative.stats
            print(
                f"{label:<30} {representative.ipc:>8.4f} "
                f"{result.speedup:>8.3f} "
                f"{stats.llc_mpki:>9.1f} "
                f"{stats.prefetch_accuracy:>7.2f} "
                f"{stats.ocp_accuracy:>8.2f}"
            )


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "spec06.mcf_like.0"
    length = int(sys.argv[2]) if len(sys.argv) > 2 else 16_000
    run(workload, length)


if __name__ == "__main__":
    main()
