#!/usr/bin/env python3
"""Peek inside a running Athena agent: states, Q-values, actions, rewards.

Runs one workload under Athena and dumps the per-epoch decision trail:
the measured features, the chosen coordination action, the Q-value-driven
prefetch degree (paper Algorithm 1), and the composite reward the agent
collected.  Useful for understanding *why* the agent converges where it
does — this is the microscope behind the paper's Figure 17 case study.

Run:
    python examples/inspect_athena_learning.py [workload]
"""

import sys

from repro.experiments.configs import CacheDesign, build_hierarchy
from repro.policies.athena import AthenaPolicy
from repro.sim.simulator import Simulator
from repro.workloads.suites import build_trace, find_workload


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "ligra.PageRank.1"
    trace = build_trace(find_workload(workload), 24_000)
    design = CacheDesign.cd1()
    hierarchy = build_hierarchy(design)
    policy = AthenaPolicy()
    result = Simulator(trace, hierarchy, policy=policy,
                       epoch_length=300).run()

    agent = policy.agent
    print(f"workload: {workload}")
    print(f"final IPC: {result.ipc:.4f}")
    print(f"cumulative reward: {agent.cumulative_reward:+.3f}")
    print(f"Athena storage: {agent.storage_kib():.2f} KiB "
          f"(paper Table 4: 3 KiB)")
    print()

    print("epoch  action          degree  reward-trend  pf_acc ocp_acc "
          "bw    pollution")
    telemetry_by_epoch = {t.epoch_index: t for t in result.epochs}
    for i, decision in enumerate(agent.decisions):
        if i % 8 != 0:  # print every 8th epoch to keep the trail short
            continue
        action = policy.actions[decision.action_index]
        telemetry = telemetry_by_epoch.get(i)
        features = ""
        if telemetry is not None:
            features = (
                f"{telemetry.prefetcher_accuracy:6.2f} "
                f"{telemetry.ocp_accuracy:7.2f} "
                f"{telemetry.bandwidth_usage:5.2f} "
                f"{telemetry.cache_pollution:9.2f}"
            )
        print(
            f"{i:>5}  {action.describe():<15} "
            f"{decision.degree_fraction:>6.2f}  "
            f"q={max(decision.q_values):+.3f}      {features}"
        )

    print()
    print("final action distribution:")
    for (pf, ocp), share in sorted(
        result.action_distribution().items(), key=lambda kv: -kv[1]
    ):
        pf_str = "+".join("PF" for enabled in pf if enabled) or "no-PF"
        ocp_str = "OCP" if ocp else "no-OCP"
        print(f"  {pf_str:<8} {ocp_str:<7} {share:6.1%}")


if __name__ == "__main__":
    main()
