"""Extension benches: flow-level FCT across operating modes, and the
max-min allocator's scaling.

The LP benches measure capacity under optimal routing; the first bench
runs the fluid flow-level simulator (KSP routing, max-min fairness) on
the same cluster workload in each operating mode and reports mean flow
completion time.  The LP trend should survive routing realism: the
random-graph modes finish the broadcast-heavy workload faster than Clos.

The second bench is one max-min allocation at 1k, 10k and 100k flows on
the k=12 global-random fabric, every flow pinned to a path drawn from a
fixed-seed KSP-8 pool.  Its table holds only seed-determined numbers;
the sweep's wall time is the bench session's entry.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from conftest import show

from repro.core.controller import Controller
from repro.core.conversion import Mode, convert
from repro.core.design import FlatTreeDesign
from repro.core.flattree import FlatTree
from repro.experiments.common import ExperimentResult
from repro.experiments.fct import hotspot_flows
from repro.flowsim.fairshare import (
    FairShareResult,
    RoutedFlow,
    link_allocation,
    max_min_fair_rates,
)
from repro.flowsim.simulator import FlowSimulator
from repro.routing.ksp import k_shortest_paths
from repro.topology.elements import Network

BENCH_K = 8
FLOWS = 120
SWEEP_K = 12
SWEEP_FLOWS = (1_000, 10_000, 100_000)
#: Switch pairs in the path pool; each contributes its 8 shortest paths.
POOL_PAIRS = 64


def simulate_mode(mode: Mode) -> float:
    design = FlatTreeDesign.for_fat_tree(BENCH_K)
    controller = Controller(FlatTree(design))
    controller.apply_mode(mode)
    flows = hotspot_flows(design.params.num_servers, FLOWS, random.Random(7))
    simulator = FlowSimulator(controller.network, controller.route)
    return simulator.run(flows).mean_fct


def run_fct_comparison() -> ExperimentResult:
    result = ExperimentResult(
        experiment="extension: mean FCT by operating mode (fluid sim)",
        x_label="k",
        y_label="mean flow completion time",
    )
    for mode in (Mode.CLOS, Mode.GLOBAL_RANDOM, Mode.LOCAL_RANDOM):
        result.new_series(mode.value).add(BENCH_K, simulate_mode(mode))
    return result


def test_bench_fct_by_mode(once):
    result = once(run_fct_comparison)
    show(result)
    clos = result.get("clos").points[BENCH_K]
    global_random = result.get("global-random").points[BENCH_K]
    # Hotspot-heavy traffic: the converted network's extra hotspot
    # capacity must show up as faster completions.
    assert global_random <= clos * 1.05


def scaling_inputs() -> Tuple[Network, Dict[int, Tuple[List[RoutedFlow], int]]]:
    """The fabric, and per sweep size its flows and loaded link count."""
    net = convert(FlatTree(FlatTreeDesign.for_fat_tree(SWEEP_K)),
                  Mode.GLOBAL_RANDOM)
    rng = random.Random(SWEEP_K)
    switches = sorted((s for s in net.switches() if net.server_count(s)),
                      key=repr)
    pool = []
    for _ in range(POOL_PAIRS):
        src, dst = rng.sample(switches, 2)
        pool.extend(k_shortest_paths(net, src, dst, k=8))
    sweep = {}
    for size in SWEEP_FLOWS:
        picks = [rng.randrange(len(pool)) for _ in range(size)]
        flows = [RoutedFlow(fid, pool[i]) for fid, i in enumerate(picks)]
        loaded = {edge for i in set(picks) for edge in pool[i].edges()}
        sweep[size] = (flows, len(loaded))
    return net, sweep


def allocate_all(net: Network, sweep) -> Dict[int, FairShareResult]:
    return {size: max_min_fair_rates(net, flows)
            for size, (flows, _loaded) in sweep.items()}


def test_bench_fairshare_scaling(once):
    net, sweep = scaling_inputs()
    allocations = once(allocate_all, net, sweep)
    result = ExperimentResult(
        experiment=f"extension: max-min allocation scaling, k={SWEEP_K} "
                   f"global-random",
        x_label="flows",
        y_label="rate",
    )
    links = result.new_series("loaded directed links")
    total = result.new_series("aggregate rate")
    floor = result.new_series("min rate")
    for size, alloc in allocations.items():
        links.add(size, sweep[size][1])
        total.add(size, alloc.total)
        floor.add(size, alloc.min_rate)
    show(result)
    for size, alloc in allocations.items():
        assert alloc.min_rate > 0
        link_rates, _ = link_allocation(sweep[size][0], alloc.rates)
        assert len(link_rates) == sweep[size][1]
        for (u, v), rate in link_rates.items():
            assert rate <= net.capacity(u, v) * (1 + 1e-9)
    # More flows on the same paths: the floor can only sink.
    floors = [floor.points[size] for size in SWEEP_FLOWS]
    assert floors == sorted(floors, reverse=True)
