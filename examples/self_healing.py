#!/usr/bin/env python3
"""Self-recovery and elastic scaling: the paper's §5 future work, built.

Part 1 — self-healing.  A cable between a converter switch and its edge
switch is cut while the network runs in Clos mode.  In a fixed topology
the attached server goes dark; a convertible topology re-programs the
converter so the server comes back through its aggregation switch.

Part 2 — downscaling.  At idle time the offered load is a trickle; the
controller proves (with the concurrent-flow solver) how many core
switches can sleep while the remaining workload still meets its
throughput floor.

Run:  python examples/self_healing.py
"""

from repro import Controller, FlatTree, FlatTreeDesign, Mode
from repro.core.failures import FailureSet, Leg
from repro.core.scaling import downscale_plan
from repro.mcf.commodities import Commodity
from repro.topology.stats import is_connected

K = 8


def part_one_self_healing(controller: Controller) -> None:
    print("=== part 1: self-healing after a cable cut ===")
    flattree = controller.flattree
    victim = sorted(flattree.four_port_ids())[0]
    server = flattree.converters[victim].server
    failures = FailureSet.of_legs((victim, Leg.EDGE))
    print(f"cut: converter {victim} loses its edge-switch cable "
          f"(server {server} rides on it in Clos mode)")

    degraded = flattree.materialize(failures=failures)
    stranded = set(range(flattree.params.num_servers)) - set(degraded.servers())
    print(f"before healing: {len(stranded)} server(s) dark: {sorted(stranded)}")

    plan = controller.recover(failures)
    print(f"heal: {plan.summary()}")
    healed = flattree.materialize(failures=failures)
    still_dark = set(range(flattree.params.num_servers)) - set(healed.servers())
    host = healed.server_switch(server)
    print(f"after healing: {len(still_dark)} server(s) dark; server "
          f"{server} now attached to {host} "
          f"(connected: {is_connected(healed)})\n")


def part_two_downscaling(controller: Controller) -> None:
    print("=== part 2: night-time downscaling ===")
    controller.apply_mode(Mode.CLOS)
    network = controller.network
    # The idle-hours trickle: a handful of cross-Pod flows.
    workload = [
        Commodity(0, 100),
        Commodity(17, 64),
        Commodity(33, 127),
        Commodity(70, 5),
    ]
    print(f"idle workload: {len(workload)} flows on "
          f"{network.num_servers} servers")
    plan = downscale_plan(
        network, workload, min_throughput_fraction=0.5, max_sleeping=8
    )
    print(f"downscale: {plan.summary()}")
    print(f"  baseline throughput {plan.baseline_throughput:.3f}, "
          f"after sleeping {plan.cores_slept} cores "
          f"{plan.achieved_throughput:.3f}")


def main() -> None:
    controller = Controller(FlatTree(FlatTreeDesign.for_fat_tree(K)))
    part_one_self_healing(controller)
    part_two_downscaling(controller)


if __name__ == "__main__":
    main()
