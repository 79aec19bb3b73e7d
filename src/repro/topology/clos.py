"""Generic single-Pod-layer Clos parameterization and builder.

The paper's flat-tree design targets *generic* Clos networks: ``d`` edge
switches and ``d/r`` aggregation switches per Pod, ``h`` uplinks per
aggregation switch, any number of Pods, servers attached at the edge.  The
fat-tree used for evaluation is the special case ``r = 1``,
``d = h = servers_per_edge = k/2``, ``pods = k``.

This module defines :class:`ClosParams` — the single source of truth for
layout arithmetic shared by the Clos builder, the flat-tree Pod, and the
wiring patterns — plus :func:`build_clos`, which materializes the plain
(non-convertible) Clos network.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TopologyError
from repro.topology.elements import (
    AggSwitch,
    CoreSwitch,
    EdgeSwitch,
    Network,
)


@dataclass(frozen=True)
class ClosParams:
    """Layout of a single-Pod-layer Clos network.

    Attributes
    ----------
    pods:
        Number of Pods.
    d:
        Edge switches per Pod.
    r:
        Edge-to-aggregation ratio; each Pod has ``d / r`` aggregation
        switches and aggregation switch ``a`` serves edge switches
        ``a*r .. a*r + r - 1``.
    h:
        Core-facing uplinks per aggregation switch.  Each *edge group*
        (the connectors associated with one edge switch, see paper §2.3)
        owns ``h / r`` of them.
    servers_per_edge:
        Servers attached to each edge switch in Clos mode.
    """

    pods: int
    d: int
    r: int
    h: int
    servers_per_edge: int

    def __post_init__(self) -> None:
        if self.pods < 1:
            raise TopologyError("need at least one Pod")
        if self.d < 1 or self.h < 1 or self.servers_per_edge < 1:
            raise TopologyError("d, h and servers_per_edge must be positive")
        if self.r < 1 or self.d % self.r != 0:
            raise TopologyError(f"r={self.r} must divide d={self.d}")
        if self.h % self.r != 0:
            raise TopologyError(f"r={self.r} must divide h={self.h}")

    # ------------------------------------------------------------------
    # derived sizes
    # ------------------------------------------------------------------
    @property
    def aggs_per_pod(self) -> int:
        return self.d // self.r

    @property
    def group_size(self) -> int:
        """Core switches per edge group (= ``h / r``)."""
        return self.h // self.r

    @property
    def num_cores(self) -> int:
        return self.d * self.group_size

    @property
    def num_switches(self) -> int:
        return self.pods * (self.d + self.aggs_per_pod) + self.num_cores

    @property
    def servers_per_pod(self) -> int:
        return self.d * self.servers_per_edge

    @property
    def num_servers(self) -> int:
        return self.pods * self.servers_per_pod

    @property
    def edge_ports(self) -> int:
        """Port budget of an edge switch: servers + one link per Pod agg."""
        return self.servers_per_edge + self.aggs_per_pod

    @property
    def agg_ports(self) -> int:
        """Port budget of an aggregation switch: Pod edges + uplinks."""
        return self.d + self.h

    @property
    def core_ports(self) -> int:
        """Port budget of a core switch: one link per Pod."""
        return self.pods

    # ------------------------------------------------------------------
    # identity helpers
    # ------------------------------------------------------------------
    def agg_of_edge(self, j: int) -> int:
        """Index of the aggregation switch paired with edge ``j``."""
        return j // self.r

    def core_group(self, j: int) -> range:
        """Global indices of the core switches in edge group ``j``."""
        start = j * self.group_size
        return range(start, start + self.group_size)

    def server_id(self, pod: int, edge: int, slot: int) -> int:
        """Global id of the server in ``slot`` on edge switch ``edge``.

        Server ids are dense and ordered Pod-major, edge-switch-minor, so
        "continuous placement across servers" (paper §3.1) is simply
        id order.
        """
        if not 0 <= slot < self.servers_per_edge:
            raise TopologyError(f"server slot {slot} out of range")
        return (pod * self.d + edge) * self.servers_per_edge + slot

    def server_pod(self, server: int) -> int:
        """Pod a server id belongs to (by the dense id scheme)."""
        return server // self.servers_per_pod

    def server_edge(self, server: int) -> int:
        """Edge-switch index (within its Pod) a server id belongs to."""
        return (server % self.servers_per_pod) // self.servers_per_edge

    def server_slot(self, server: int) -> int:
        """Slot of a server on its edge switch."""
        return server % self.servers_per_edge

    def pod_servers(self, pod: int) -> range:
        """All server ids of a Pod."""
        start = pod * self.servers_per_pod
        return range(start, start + self.servers_per_pod)


def fat_tree_params(k: int) -> ClosParams:
    """The fat-tree(k) layout used throughout the paper's evaluation."""
    if k < 4 or k % 2 != 0:
        raise TopologyError(f"fat-tree requires even k >= 4, got {k}")
    half = k // 2
    return ClosParams(pods=k, d=half, r=1, h=half, servers_per_edge=half)


def add_clos_switches(net: Network, params: ClosParams) -> None:
    """Register all switches of a Clos/flat-tree layout on ``net``.

    Insertion order is deterministic (cores, then per-Pod edge and
    aggregation switches) so dense index mappings are stable.
    """
    for c in range(params.num_cores):
        net.add_switch(CoreSwitch(c), params.core_ports)
    for p in range(params.pods):
        for j in range(params.d):
            net.add_switch(EdgeSwitch(p, j), params.edge_ports)
        for a in range(params.aggs_per_pod):
            net.add_switch(AggSwitch(p, a), params.agg_ports)


def add_intra_pod_bipartite(net: Network, params: ClosParams) -> None:
    """Wire the complete edge-aggregation bipartite inside every Pod.

    These links are never touched by converter switches; flat-tree keeps
    them in every operating mode.
    """
    for p in range(params.pods):
        for j in range(params.d):
            for a in range(params.aggs_per_pod):
                net.add_cable(EdgeSwitch(p, j), AggSwitch(p, a))


def build_clos(params: ClosParams, name: str = "clos") -> Network:
    """Build the plain Clos network described by ``params``.

    Pod-core wiring follows the paper's Figure 4a: the connectors of edge
    group ``j`` in every Pod go to the same ``h/r`` core switches, all of
    them owned by aggregation switch ``j // r``.
    """
    net = Network(name)
    add_clos_switches(net, params)
    add_intra_pod_bipartite(net, params)
    for p in range(params.pods):
        for j in range(params.d):
            agg = AggSwitch(p, params.agg_of_edge(j))
            for c in params.core_group(j):
                net.add_cable(agg, CoreSwitch(c))
            edge = EdgeSwitch(p, j)
            for slot in range(params.servers_per_edge):
                net.add_server(params.server_id(p, j, slot), edge)
    return net
