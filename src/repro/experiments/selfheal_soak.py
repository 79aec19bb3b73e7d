"""Self-healing soak: flowsim rides through a mid-run fault + repair.

The loop's end-to-end story on one timeline: a hot-spot workload runs
on a Clos fabric; at 40% of the baseline makespan an edge leg dies
(a ``TopologyEvent`` swaps in the degraded materialization — active
flows reroute over surviving links or fail); the remediation plane
sees the dark link, fires ``link_failure``, and heals the fabric
(converters re-programmed around the dead leg); a second
``TopologyEvent`` swaps in the healed materialization at the repair
time the ledger recorded.  The result compares the soaked run against
the undisturbed baseline — completions, reroutes, failures, and the
mean-FCT tax of living through the incident.

Everything is seeded and trace-clock driven: the repair time comes
from the deterministic remediation ledger, so two soaks with the same
arguments are identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.controller import Controller
from repro.core.design import FlatTreeDesign
from repro.core.failures import FailureSet, Leg
from repro.core.flattree import FlatTree
from repro.core.reconfigure import MEMS_OPTICAL, Technology
from repro.errors import ReproError
from repro.experiments.fct import _hotspot_workload
from repro.flowsim import FlowSimulator, SimulationResult, TopologyEvent
from repro.selfheal.engine import (
    ControllerExecutor,
    RemediationEngine,
    new_selfheal_aggregator,
)
from repro.selfheal.ledger import RemediationLedger
from repro.selfheal.policy import ACTION_HEAL
from repro.selfheal.regret import DT, _link_down, _link_sample, ksp_router

#: How long (trace seconds) the loop gets to converge on the repair
#: before the soak declares it stuck.
_REPAIR_WINDOW_S = 5.0


@dataclass(frozen=True)
class SoakResult:
    """One soak run: baseline vs fault-and-heal timeline."""

    k: int
    flows: int
    seed: int
    t_fail: float
    t_repair: Optional[float]
    stranded_degraded: int
    stranded_healed: int
    baseline: SimulationResult
    soaked: SimulationResult
    ledger: RemediationLedger
    actions: Dict[str, int] = field(default_factory=dict)

    @property
    def repaired(self) -> bool:
        return self.t_repair is not None

    @property
    def fct_tax(self) -> float:
        """Mean-FCT ratio of the soaked run over the baseline."""
        base = self.baseline.mean_fct
        return self.soaked.mean_fct / base if base > 0 else 1.0

    def table(self) -> str:
        lines = [
            f"self-heal soak: k={self.k} flows={self.flows} "
            f"seed={self.seed}",
            f"  fault: edge leg dies at t={self.t_fail:.3f} "
            f"({self.stranded_degraded} server(s) stranded)",
        ]
        if self.t_repair is not None:
            lines.append(
                f"  repair: loop healed at t={self.t_repair:.3f} "
                f"(MTTR {self.t_repair - self.t_fail:.3f}s, "
                f"{self.stranded_healed} server(s) still dark)")
        else:
            lines.append("  repair: loop did NOT converge")
        lines.append(
            f"  {'run':<10} {'completed':>9} {'failed':>6} "
            f"{'rerouted':>8} {'mean-fct':>9}")
        for label, run in (("baseline", self.baseline),
                           ("soaked", self.soaked)):
            lines.append(
                f"  {label:<10} {len(run.completed):>9d} "
                f"{len(run.failed):>6d} {run.rerouted:>8d} "
                f"{run.mean_fct:>9.3f}")
        lines.append(f"  fct tax: {self.fct_tax:.3f}x")
        lines.append(f"  {self.ledger.summary()}")
        return "\n".join(lines)


def run_selfheal_soak(k: int = 4, flows: int = 24, seed: int = 0,
                      technology: Technology = MEMS_OPTICAL) -> SoakResult:
    """Run the fault-and-heal soak and return the comparison."""
    if k < 4 or k % 2:
        raise ReproError("k must be an even integer >= 4")
    ft = FlatTree(FlatTreeDesign.for_fat_tree(k))
    controller = Controller(ft)
    workload = _hotspot_workload(
        ft.params.num_servers, flows, random.Random(seed))

    baseline_net = controller.network
    baseline = FlowSimulator(
        baseline_net, ksp_router(baseline_net)).run(list(workload))
    t_fail = round(0.4 * baseline.makespan / DT) * DT

    victim = sorted(ft.four_port_ids())[0]
    failures = FailureSet.of_legs((victim, Leg.EDGE))
    # The degraded view is the pre-heal Clos with the dead leg; capture
    # it before the loop re-programs any converter.
    degraded = ft.materialize(failures=failures)
    stranded_degraded = ft.params.num_servers - len(list(degraded.servers()))

    agg = new_selfheal_aggregator(eval_every=4)
    executor = ControllerExecutor(
        controller, technology=technology, failures_at=lambda t: failures)
    engine = RemediationEngine(executor=executor)

    t_repair: Optional[float] = None
    ticks = int(round(_REPAIR_WINDOW_S / DT))
    for i in range(ticks + 1):
        t = round(t_fail + i * DT, 10)
        agg.consume(_link_sample(t, "bg0->bg1", 0.10))
        if i == 0:
            agg.consume(_link_down(t, f"c{victim}->edge"))
        for entry in engine.poll(agg):
            if entry.status == "succeeded" and entry.action == ACTION_HEAL:
                t_repair = round(entry.t + max(entry.latency_s, DT), 10)
        if t_repair is not None:
            break

    events = [TopologyEvent(t_fail, degraded, ksp_router(degraded),
                            label="leg_fail")]
    healed = ft.materialize(failures=failures)
    stranded_healed = ft.params.num_servers - len(list(healed.servers()))
    if t_repair is not None:
        events.append(TopologyEvent(t_repair, healed, ksp_router(healed),
                                    label="selfheal"))
    soaked = FlowSimulator(
        baseline_net, ksp_router(baseline_net)).run(
            list(workload), events=events)

    actions: Dict[str, int] = {}
    for entry in engine.ledger.by_status("succeeded"):
        actions[entry.action] = actions.get(entry.action, 0) + 1
    return SoakResult(
        k=k, flows=flows, seed=seed, t_fail=t_fail, t_repair=t_repair,
        stranded_degraded=stranded_degraded,
        stranded_healed=stranded_healed,
        baseline=baseline, soaked=soaked, ledger=engine.ledger,
        actions=actions)
