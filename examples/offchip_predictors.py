"""Compare the three off-chip predictors (POPET, HMP, TTP).

Reproduces the flavour of the paper's §7.2.2 at example scale: for a
prefetcher-adverse and a prefetcher-friendly workload, run CD1 with each
OCP (prefetcher disabled) and report prediction volume, accuracy, and the
speedup over a no-OCP baseline.

Run:  python examples/offchip_predictors.py
"""

from repro.experiments.configs import CacheDesign, build_hierarchy
from repro.sim.simulator import Simulator
from repro.workloads.suites import build_trace, find_workload

LENGTH = 16_000
WORKLOADS = (
    "ligra.BFS.0",               # irregular: addresses unpredictable,
                                 # off-chip-ness highly predictable
    "spec06.libquantum_like.0",  # streaming: prefetcher territory
)
OCP_NAMES = ("popet", "hmp", "ttp")


def simulate(workload, ocp_name):
    design = CacheDesign.cd1(ocp=ocp_name).only_ocp()
    return Simulator(
        build_trace(find_workload(workload), LENGTH),
        build_hierarchy(design),
        epoch_length=400,
    ).run()


def main():
    for workload in WORKLOADS:
        baseline = simulate(workload, None)
        print(f"\n{workload}  (baseline IPC {baseline.ipc:.4f})")
        print(f"  {'OCP':6s} {'predictions':>12s} {'accuracy':>9s} "
              f"{'speedup':>8s}")
        for ocp in OCP_NAMES:
            result = simulate(workload, ocp)
            stats = result.stats
            accuracy = (
                stats.ocp_correct / stats.ocp_predictions
                if stats.ocp_predictions else 0.0
            )
            print(f"  {ocp:6s} {stats.ocp_predictions:12d} "
                  f"{accuracy:9.1%} {result.ipc / baseline.ipc:8.3f}")
    print("\nNote: the paper's Table 8 storage classes — POPET 4 KB, "
          "HMP 11 KB, TTP ~L2-sized metadata.")
    from repro.ocp import make_ocp

    for ocp in OCP_NAMES:
        print(f"  {ocp}: {make_ocp(ocp).storage_kib():.1f} KiB")


if __name__ == "__main__":
    main()
