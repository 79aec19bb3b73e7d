#!/usr/bin/env python3
"""Flow-level view: what conversion buys running applications.

The paper evaluates capacity with an optimal-routing LP; applications
experience *flow completion time* under real (k-shortest-paths)
routing.  This example runs the fluid flow-level simulator on the same
hot-spot-heavy workload in Clos mode and in global-random mode and
compares mean/p99 FCT — the LP's capacity advantage should survive
routing realism.

It doubles as a telemetry demo: the conversion + simulation of each
mode runs inside an ``obs.span`` (JSONL events on stderr) and the
script closes with the accumulated metrics — simulator event counts,
fair-share recomputes, route-cache hits, conversion churn.

Run:  python examples/live_conversion_fct.py
"""

import random

from repro import Controller, FlatTree, FlatTreeDesign, Mode, obs
from repro.experiments.fct import hotspot_flows
from repro.flowsim import FlowSimulator

K = 8
#: Half fan out of one hot server, half are random background pairs.
FLOWS = 120
SEED = 11


def simulate(controller: Controller, mode: Mode, flows) -> None:
    with obs.span("simulate_mode", mode=mode.value):
        plan = controller.apply_mode(mode)
        if not plan.is_noop():
            print(f"\nconvert to {mode.value}: {plan.summary()}")
        simulator = FlowSimulator(controller.network, controller.route)
        result = simulator.run(list(flows))
    print(f"{mode.value:>14}:  mean FCT {result.mean_fct:7.3f}   "
          f"p99 FCT {result.p99_fct:7.3f}   makespan {result.makespan:7.3f}")


def main() -> None:
    obs.enable(obs.StderrSink())  # span events trace progress on stderr

    design = FlatTreeDesign.for_fat_tree(K)
    controller = Controller(FlatTree(design))
    flows = hotspot_flows(design.params.num_servers, FLOWS,
                          random.Random(SEED))
    print(f"workload: {FLOWS // 2} hot-spot flows + "
          f"{FLOWS - FLOWS // 2} background flows, unit size each")

    simulate(controller, Mode.CLOS, flows)
    simulate(controller, Mode.GLOBAL_RANDOM, flows)
    simulate(controller, Mode.LOCAL_RANDOM, flows)

    print("\nthe global-random conversion spreads the hot spot's servers "
          "over edge, aggregation and core switches, so the same flows "
          "drain faster than on the Clos hierarchy")

    print("\n=== telemetry accumulated by the runs ===")
    print(obs.render_table())
    obs.disable()


if __name__ == "__main__":
    main()
