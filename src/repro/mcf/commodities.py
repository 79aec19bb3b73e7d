"""Commodities and flow problems for throughput evaluation (paper §3.1).

The paper measures throughput by solving the **maximum concurrent
multi-commodity flow** problem at switch level: server bandwidth is
relaxed, all switch-switch links have unit capacity, and every commodity
(server pair with a demand) must receive the same rate ``λ`` per unit of
demand; the reported throughput is the maximal ``λ``.

Two modelling consequences are encoded here:

* **Switch contraction** — commodities between servers on the same switch
  are unconstraining under relaxed server bandwidth and are dropped;
  all others become switch-to-switch demands.
* **Source aggregation** — commodities sharing a source switch can share
  flow variables (flow conservation with multiple sinks), shrinking the
  LP by orders of magnitude without changing its optimum.

Links are full-duplex: each cable is two directed arcs of one capacity
unit each.  Incast traffic is therefore the arc-reversal of broadcast
traffic and achieves the identical ``λ``.  The same symmetry lets the
exact LP solve symmetric demand, such as all-to-all, over cables: each
switch pair is routed once and both arcs of a cable share one capacity
row, at the same ``λ`` (:mod:`repro.mcf.exact`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.errors import TrafficError
from repro.topology.elements import Network, ServerId


@dataclass(frozen=True)
class Commodity:
    """A unit of demand from one server to another."""

    src: ServerId
    dst: ServerId
    demand: float = 1.0

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise TrafficError(f"commodity from server {self.src} to itself")
        if self.demand <= 0:
            raise TrafficError(f"non-positive demand {self.demand}")


@dataclass
class DemandGroup:
    """All demands sharing one source switch (aggregated commodities)."""

    source: int
    sinks: np.ndarray
    demands: np.ndarray

    @property
    def total_demand(self) -> float:
        return float(self.demands.sum())


@dataclass
class FlowProblem:
    """A directed, capacitated flow network with aggregated demands.

    Built by :func:`build_flow_problem`, node ``i`` is switch
    ``net.link_index().nodes[i]`` and the arcs are that index's
    directed links: cable bundle ``j`` gives arcs ``2j`` and ``2j + 1``,
    an antiparallel pair (full duplex).  The arc arrays are the index's
    own read-only arrays.
    """

    num_nodes: int
    arc_src: np.ndarray
    arc_dst: np.ndarray
    arc_cap: np.ndarray
    groups: List[DemandGroup]

    @property
    def num_arcs(self) -> int:
        return int(self.arc_src.shape[0])

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def total_demand(self) -> float:
        return sum(g.total_demand for g in self.groups)

    def reversed(self) -> "FlowProblem":
        """The arc-reversed problem (models incast given broadcast).

        Demands are reversed per-commodity: each (source -> sink, d)
        becomes (sink -> source, d), re-aggregated by the new sources.
        """
        pairs: List[Tuple[int, int, float]] = []
        for g in self.groups:
            for sink, demand in zip(g.sinks, g.demands):
                pairs.append((int(sink), g.source, float(demand)))
        groups = _aggregate(pairs)
        return FlowProblem(
            num_nodes=self.num_nodes,
            arc_src=self.arc_dst.copy(),
            arc_dst=self.arc_src.copy(),
            arc_cap=self.arc_cap.copy(),
            groups=groups,
        )


def build_flow_problem(
    net: Network, commodities: Iterable[Commodity]
) -> FlowProblem:
    """Contract server commodities to switch level and aggregate.

    Same-switch commodities are dropped (relaxed server bandwidth makes
    them unconstraining).  Raises :class:`TrafficError` if *every*
    commodity is dropped — a concurrent-flow value would be meaningless.
    """
    index = net.link_index()
    ids = index.switch_ids
    pairs: List[Tuple[int, int, float]] = []
    for c in commodities:
        src_sw = ids[net.server_switch(c.src)]
        dst_sw = ids[net.server_switch(c.dst)]
        if src_sw == dst_sw:
            continue
        pairs.append((src_sw, dst_sw, c.demand))
    if not pairs:
        raise TrafficError(
            "all commodities are same-switch; concurrent flow is unbounded"
        )
    links = index.links
    return FlowProblem(
        num_nodes=len(ids),
        arc_src=links.tail,
        arc_dst=links.head,
        arc_cap=links.capacity,
        groups=_aggregate(pairs),
    )


def _aggregate(pairs: List[Tuple[int, int, float]]) -> List[DemandGroup]:
    """Group (src, dst, demand) triples by source, summing duplicates."""
    by_source: Dict[int, Dict[int, float]] = {}
    for src, dst, demand in pairs:
        sinks = by_source.setdefault(src, {})
        sinks[dst] = sinks.get(dst, 0.0) + demand
    groups = []
    for src in sorted(by_source):
        sinks = by_source[src]
        order = sorted(sinks)
        groups.append(
            DemandGroup(
                source=src,
                sinks=np.asarray(order, dtype=np.int32),
                demands=np.asarray([sinks[t] for t in order], dtype=np.float64),
            )
        )
    return groups


def commodity_count(problem: FlowProblem) -> int:
    """Number of distinct switch-level commodities after aggregation."""
    return sum(len(g.sinks) for g in problem.groups)
