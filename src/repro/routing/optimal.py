"""Optimal-routing compilation: LP solutions as installable routes.

Paper §2.6: "it is possible to have prior knowledge of the shortest
paths and program the routing decisions via SDN."  This module goes one
step further and programs the *throughput-optimal* decisions: it solves
the max concurrent flow LP for a workload, decomposes the optimal edge
flows into paths, and emits weighted path sets per switch pair — ready
to install as an :class:`~repro.routing.sdn.SdnProgram` or to drive the
fluid simulator with provably-optimal splits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.errors import RoutingError
from repro.mcf.commodities import Commodity, build_flow_problem
from repro.mcf.decompose import PathFlow, decompose_solution
from repro.mcf.exact import solve_concurrent_exact
from repro.routing.base import Path, RoutingTable
from repro.routing.sdn import SdnProgram
from repro.topology.elements import Network, SwitchId


@dataclass
class WeightedPaths:
    """A pair's optimal path set with flow-proportional weights."""

    src: SwitchId
    dst: SwitchId
    paths: List[Path] = field(default_factory=list)
    weights: List[float] = field(default_factory=list)

    def normalized_weights(self) -> List[float]:
        total = sum(self.weights)
        if total <= 0:
            raise RoutingError(
                f"no positive flow for pair {self.src!r} -> {self.dst!r}"
            )
        return [w / total for w in self.weights]


@dataclass
class OptimalRoutes:
    """Output of :func:`compile_optimal_routes`."""

    throughput: float
    pairs: Dict[Tuple[SwitchId, SwitchId], WeightedPaths] = field(
        default_factory=dict
    )

    def paths_for(self, src: SwitchId, dst: SwitchId) -> WeightedPaths:
        try:
            return self.pairs[(src, dst)]
        except KeyError:
            raise RoutingError(
                f"no optimal routes for {src!r} -> {dst!r}"
            ) from None

    def as_routing_table(self, name: str = "optimal") -> RoutingTable:
        table = RoutingTable(name=name)
        for weighted in self.pairs.values():
            table.add(weighted.paths)
        return table

    def as_sdn_program(self) -> SdnProgram:
        return SdnProgram.compile(self.as_routing_table())


def compile_optimal_routes(
    net: Network, workload: Iterable[Commodity]
) -> OptimalRoutes:
    """Solve, decompose, and compile the optimal routing for a workload.

    The result's path weights reproduce the LP's traffic split; paths
    carrying less than 0.1% of a pair's flow are pruned (LP vertices
    often contain dust-level splits that no data plane would install).
    """
    problem = build_flow_problem(net, workload)
    solution = solve_concurrent_exact(problem, return_flows=True)
    index_to_switch = {i: s for s, i in problem.index_of.items()}

    routes = OptimalRoutes(throughput=solution.throughput)
    for flow_path in decompose_solution(problem, solution.flows):
        _add_path(routes, index_to_switch, flow_path)
    for weighted in routes.pairs.values():
        _prune_dust(weighted)
    return routes


def _add_path(
    routes: OptimalRoutes,
    index_to_switch: Dict[int, SwitchId],
    flow_path: PathFlow,
) -> None:
    nodes = tuple(index_to_switch[i] for i in flow_path.nodes)
    key = (nodes[0], nodes[-1])
    weighted = routes.pairs.setdefault(
        key, WeightedPaths(src=nodes[0], dst=nodes[-1])
    )
    path = Path(nodes)
    if path in weighted.paths:
        weighted.weights[weighted.paths.index(path)] += flow_path.amount
    else:
        weighted.paths.append(path)
        weighted.weights.append(flow_path.amount)


def _prune_dust(weighted: WeightedPaths, threshold: float = 1e-3) -> None:
    total = sum(weighted.weights)
    if total <= 0:
        return
    kept = [
        (p, w)
        for p, w in zip(weighted.paths, weighted.weights)
        if w / total >= threshold
    ]
    if kept:
        weighted.paths = [p for p, _w in kept]
        weighted.weights = [w for _p, w in kept]
