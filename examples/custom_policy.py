#!/usr/bin/env python3
"""Writing your own coordination policy against the public API.

The library's policy interface is deliberately small: implement
``decide(telemetry) -> CoordinationAction`` and you can plug anything into
the simulator — here, a simple "accuracy-gated" policy that enables each
mechanism only while its measured accuracy clears a bar, as a contrast to
Athena's learned policy.

The ``@register_policy`` decorator adds the class to the unified
component registry *without editing any core file*: after that, the
name works everywhere a built-in policy name does — ``RunSpec``,
``make_policy``, spec files, the CLI — as long as this module is
imported first (plugin policies are process-local, so run with the
default serial engine or make the module importable by workers).

Run:
    python examples/custom_policy.py
"""

from repro.api import RunSpec, Session, register_policy
from repro.policies.base import CoordinationAction, CoordinationPolicy
from repro.sim.stats import EpochTelemetry


@register_policy("accuracy_gated",
                 description="enable mechanisms only while accurate")
class AccuracyGatedPolicy(CoordinationPolicy):
    """Enable the prefetcher/OCP only while they are measurably accurate.

    A deliberately simple nonlearning policy: per epoch, compare measured
    accuracies against fixed bars, with a periodic re-probe so a disabled
    mechanism gets a chance to prove itself again.
    """

    PF_ACCURACY_BAR = 0.45
    OCP_ACCURACY_BAR = 0.50
    REPROBE_EVERY = 10

    def __init__(self) -> None:
        super().__init__()
        self._pf_on = True
        self._ocp_on = True
        self._epoch = 0

    def decide(self, telemetry: EpochTelemetry) -> CoordinationAction:
        self._epoch += 1
        reprobe = self._epoch % self.REPROBE_EVERY == 0
        if telemetry.prefetches_issued:
            self._pf_on = telemetry.prefetcher_accuracy >= self.PF_ACCURACY_BAR
        elif reprobe:
            self._pf_on = True
        if telemetry.ocp_predictions:
            self._ocp_on = telemetry.ocp_accuracy >= self.OCP_ACCURACY_BAR
        elif reprobe:
            self._ocp_on = True
        return CoordinationAction(
            prefetchers_enabled=(self._pf_on,) * self.num_prefetchers,
            ocp_enabled=self.has_ocp and self._ocp_on,
            degree_fraction=1.0,
        )


def main() -> None:
    with Session() as session:
        for workload in ("spec06.libquantum_like.0", "spec06.mcf_like.0",
                         "ligra.BFS.0"):
            print(f"{workload}:")
            for policy in ("naive", "accuracy_gated", "athena"):
                result = session.run(RunSpec(
                    workload=workload, design="cd1", policy=policy,
                    trace_length=16_000, epoch_length=200,
                ))
                print(f"  {policy:<16} ipc={result.ipc:.4f} "
                      f"speedup={result.speedup:.3f}")
            print()


if __name__ == "__main__":
    main()
