"""Figure 7: throughput of broadcast/incast traffic in 1000-member clusters.

Each cluster has one random hot-spot member broadcasting to all other
members; all clusters run concurrently and the maximum concurrent flow λ
is reported.  Expected shape (paper §3.3): flat-tree ≈ random graph ≈
1.5 x fat-tree; throughput grows roughly linearly with k; none of the
topologies is sensitive to placement locality.

Incast is the arc-reversal of broadcast and achieves the identical λ in
the full-duplex model (see ``repro.mcf.commodities``), so only the
broadcast LPs are solved.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.experiments.common import (
    DEFAULT_FLOW_KS,
    ExperimentResult,
    baseline_networks,
    flat_tree_network,
    ks_from_env,
    placement_rng,
    throughput_of,
)
from repro.core.conversion import Mode
from repro.mcf.commodities import Commodity
from repro.topology.clos import ClosParams, fat_tree_params
from repro.topology.elements import Network
from repro.traffic.clusters import (
    BROADCAST_CLUSTER_SIZE,
    cluster_count,
    make_clusters,
)
from repro.traffic.patterns import broadcast_commodities
from repro.traffic.placement import placement_by_name

PLACEMENTS: Sequence[str] = ("locality", "no locality")


def broadcast_workload(
    params: ClosParams,
    placement_name: str,
    rng: random.Random,
    cluster_size: int = BROADCAST_CLUSTER_SIZE,
) -> List[Commodity]:
    """The Figure-7 workload: hot-spot broadcast in every cluster."""
    clusters = cluster_count(params.num_servers, cluster_size)
    placement = placement_by_name(
        placement_name, clusters * cluster_size, params, cluster_size, rng
    )
    return broadcast_commodities(
        make_clusters(placement, cluster_size, rng, with_hotspots=True)
    )


def run_fig7(
    ks: Optional[Sequence[int]] = None,
    seed: int = 0,
    cluster_size: int = BROADCAST_CLUSTER_SIZE,
    solver: Optional[str] = None,
) -> ExperimentResult:
    """Reproduce Figure 7 over the given k sweep."""
    ks = ks or ks_from_env(DEFAULT_FLOW_KS)
    result = ExperimentResult(
        experiment="fig7: broadcast/incast throughput, 1000-member clusters",
        x_label="k",
        y_label="throughput (lambda)",
    )
    series = {
        (topo, place): result.new_series(f"{topo} {place}")
        for topo in ("fat-tree", "flat-tree", "random graph")
        for place in PLACEMENTS
    }
    for k in ks:
        params = fat_tree_params(k)
        baselines = baseline_networks(k, seed)
        nets = {
            "fat-tree": baselines["fat-tree"],
            "flat-tree": flat_tree_network(k, Mode.GLOBAL_RANDOM),
            "random graph": baselines["random graph"],
        }
        for place in PLACEMENTS:
            workload = broadcast_workload(
                params, place, placement_rng(seed, place),
                cluster_size=cluster_size,
            )
            for topo, net in nets.items():
                series[(topo, place)].add(
                    k, throughput_of(net, workload, force=solver)
                )
    result.notes.append(
        "paper shape: flat-tree ~ random graph ~ 1.5x fat-tree; "
        "roughly linear in k; locality-insensitive"
    )
    result.notes.append(
        "incast equals broadcast exactly (arc-reversal, full-duplex links)"
    )
    return result


def incast_equals_broadcast(net: Network, k: int, seed: int = 0) -> bool:
    """Check the documented incast/broadcast symmetry on one instance."""
    from repro.mcf.commodities import build_flow_problem
    from repro.mcf.exact import solve_concurrent_exact

    params = fat_tree_params(k)
    workload = broadcast_workload(params, "locality", random.Random(seed))
    problem = build_flow_problem(net, workload)
    forward = solve_concurrent_exact(problem).throughput
    backward = solve_concurrent_exact(problem.reversed()).throughput
    return abs(forward - backward) <= 1e-6 * max(forward, 1e-12)
