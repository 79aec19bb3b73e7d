"""Network element model shared by every topology in the library.

The model is deliberately simple and physical:

* a :class:`Network` is a set of **switches**, each with a fixed port
  budget, a set of **servers**, each attached to exactly one switch, and a
  set of **cables** between switches;
* parallel cables between the same switch pair are folded into a single
  fabric edge whose ``capacity``/``multiplicity`` attributes accumulate
  (hop counts are unaffected by parallelism, flow capacity is);
* ports are accounted for: every cable endpoint and every hosted server
  consumes one port of the switch it touches.

Switch identity uses small :class:`typing.NamedTuple` subclasses.  Each
carries a ``kind`` discriminant with a class-specific default so that, for
example, ``EdgeSwitch(0, 1)`` and ``AggSwitch(0, 1)`` never collide even
though both are 2-field tuples at heart.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

import networkx as nx
import numpy as np

from repro.errors import (
    PortBudgetError,
    ReproError,
    RoutingError,
    TopologyError,
)

if TYPE_CHECKING:
    import scipy.sparse as sp


class CoreSwitch(NamedTuple):
    """A core-layer switch, identified by its global index."""

    index: int
    kind: str = "core"


class AggSwitch(NamedTuple):
    """An aggregation switch inside a Pod."""

    pod: int
    index: int
    kind: str = "agg"


class EdgeSwitch(NamedTuple):
    """An edge (top-of-rack) switch inside a Pod."""

    pod: int
    index: int
    kind: str = "edge"


class PlainSwitch(NamedTuple):
    """An undifferentiated switch (random-graph topologies)."""

    index: int
    kind: str = "switch"


SwitchId = Union[CoreSwitch, AggSwitch, EdgeSwitch, PlainSwitch]
ServerId = int


class Network:
    """A switch fabric with attached servers and port accounting.

    Parameters
    ----------
    name:
        Human-readable topology name (used in reports and ``repr``).

    Notes
    -----
    The fabric is held as an undirected :class:`networkx.Graph`.  Every
    edge has two attributes:

    ``capacity``
        total bandwidth of the bundle, in link-bandwidth units (one unit
        per physical cable);
    ``mult``
        number of parallel physical cables folded into the edge.
    """

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self._fabric = nx.Graph()
        self._ports: Dict[SwitchId, int] = {}
        self._ports_used: Dict[SwitchId, int] = {}
        self._server_loc: Dict[ServerId, SwitchId] = {}
        self._servers_on: Dict[SwitchId, List[ServerId]] = {}
        self._link_index: Optional[LinkIndex] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_switch(self, node: SwitchId, ports: int) -> None:
        """Register a switch with a fixed number of physical ports."""
        if node in self._ports:
            raise TopologyError(f"switch {node!r} already exists")
        if ports <= 0:
            raise TopologyError(f"switch {node!r} needs a positive port count")
        self._ports[node] = ports
        self._ports_used[node] = 0
        self._servers_on[node] = []
        self._link_index = None
        self._fabric.add_node(node)

    def add_server(self, server: ServerId, switch: SwitchId) -> None:
        """Attach ``server`` to ``switch``, consuming one switch port."""
        if server in self._server_loc:
            raise TopologyError(f"server {server} already attached")
        self._consume_port(switch)
        self._server_loc[server] = switch
        self._servers_on[switch].append(server)

    def add_cable(self, u: SwitchId, v: SwitchId, capacity: float = 1.0) -> None:
        """Add one physical cable between two distinct switches.

        Parallel cables accumulate on a single fabric edge.  Each cable
        consumes one port on each endpoint.
        """
        if u == v:
            raise TopologyError(f"self-loop cable on {u!r}")
        self._consume_port(u)
        self._consume_port(v)
        self._link_index = None
        if self._fabric.has_edge(u, v):
            data = self._fabric[u][v]
            data["capacity"] += capacity
            data["mult"] += 1
        else:
            self._fabric.add_edge(u, v, capacity=capacity, mult=1)

    def remove_cable(self, u: SwitchId, v: SwitchId, capacity: float = 1.0) -> None:
        """Remove one physical cable between ``u`` and ``v``, freeing ports."""
        if not self._fabric.has_edge(u, v):
            raise TopologyError(f"no cable between {u!r} and {v!r}")
        self._link_index = None
        data = self._fabric[u][v]
        data["mult"] -= 1
        data["capacity"] -= capacity
        if data["mult"] == 0:
            self._fabric.remove_edge(u, v)
        self._ports_used[u] -= 1
        self._ports_used[v] -= 1

    def detach_server(self, server: ServerId) -> SwitchId:
        """Detach ``server`` from its switch, freeing one port."""
        if server not in self._server_loc:
            raise TopologyError(f"server {server} is not attached")
        switch = self._server_loc.pop(server)
        self._servers_on[switch].remove(server)
        self._ports_used[switch] -= 1
        return switch

    def _consume_port(self, switch: SwitchId) -> None:
        if switch not in self._ports:
            raise TopologyError(f"unknown switch {switch!r}")
        if self._ports_used[switch] >= self._ports[switch]:
            raise PortBudgetError(
                f"switch {switch!r} has no free ports "
                f"({self._ports[switch]} total)"
            )
        self._ports_used[switch] += 1

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def fabric(self) -> nx.Graph:
        """The switch-level graph (read it, do not mutate it)."""
        return self._fabric

    def switches(self) -> Iterator[SwitchId]:
        """Iterate over all switch nodes."""
        return iter(self._ports)

    def switches_of_kind(self, kind: str) -> List[SwitchId]:
        """All switches whose ``kind`` discriminant equals ``kind``."""
        return [s for s in self._ports if s.kind == kind]

    def servers(self) -> Iterator[ServerId]:
        """Iterate over all server ids."""
        return iter(self._server_loc)

    def server_switch(self, server: ServerId) -> SwitchId:
        """The switch a server is attached to."""
        try:
            return self._server_loc[server]
        except KeyError:
            raise TopologyError(f"server {server} is not attached") from None

    def servers_on(self, switch: SwitchId) -> List[ServerId]:
        """Servers attached to ``switch`` (copy)."""
        if switch not in self._servers_on:
            raise TopologyError(f"unknown switch {switch!r}")
        return list(self._servers_on[switch])

    def server_count(self, switch: SwitchId) -> int:
        """Number of servers attached to ``switch``."""
        if switch not in self._servers_on:
            raise TopologyError(f"unknown switch {switch!r}")
        return len(self._servers_on[switch])

    def ports(self, switch: SwitchId) -> int:
        """Total port budget of a switch."""
        return self._ports[switch]

    def ports_used(self, switch: SwitchId) -> int:
        """Ports consumed on a switch by cables and servers."""
        return self._ports_used[switch]

    def ports_free(self, switch: SwitchId) -> int:
        """Ports still available on a switch."""
        return self._ports[switch] - self._ports_used[switch]

    @property
    def num_switches(self) -> int:
        return len(self._ports)

    @property
    def num_servers(self) -> int:
        return len(self._server_loc)

    @property
    def num_cables(self) -> int:
        """Physical cable count (parallel cables counted individually)."""
        return sum(d["mult"] for _, _, d in _edges(self._fabric))

    def capacity(self, u: SwitchId, v: SwitchId) -> float:
        """Total capacity of the bundle between ``u`` and ``v`` (0 if none)."""
        if not self._fabric.has_edge(u, v):
            return 0.0
        return self._fabric[u][v]["capacity"]

    def degree(self, switch: SwitchId) -> int:
        """Cable-level degree of ``switch`` (parallel cables counted)."""
        return sum(
            self._fabric[switch][nbr]["mult"] for nbr in self._fabric[switch]
        )

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def switch_index(self) -> Dict[SwitchId, int]:
        """A stable switch -> dense integer index mapping (a copy).

        The ordering is the switch insertion order, which builders keep
        deterministic, so the same topology always yields the same index.
        """
        return dict(self.link_index().switch_ids)

    def host_counts(self) -> Dict[SwitchId, int]:
        """Mapping switch -> number of attached servers (only non-zero)."""
        return {s: len(v) for s, v in self._servers_on.items() if v}

    def copy(self) -> "Network":
        """Deep-enough copy: fabric, ports, and server attachments."""
        clone = Network(self.name)
        for s, p in self._ports.items():
            clone.add_switch(s, p)
        for u, v, d in _edges(self._fabric):
            for _ in range(d["mult"]):
                clone.add_cable(u, v, capacity=d["capacity"] / d["mult"])
        for server, switch in self._server_loc.items():
            clone.add_server(server, switch)
        return clone

    def edge_list(self) -> List[Tuple[SwitchId, SwitchId, float]]:
        """All fabric edges as ``(u, v, capacity)`` tuples."""
        return [(u, v, d["capacity"]) for u, v, d in _edges(self._fabric)]

    def link_index(self) -> "LinkIndex":
        """The integer form of the current fabric.

        Built on first use and kept until a switch is added or a cable
        is added or removed; moving servers keeps it.
        """
        if self._link_index is None:
            self._link_index = LinkIndex(self._fabric)
        return self._link_index

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Network {self.name!r}: {self.num_switches} switches, "
            f"{self.num_servers} servers, {self.num_cables} cables>"
        )


def _edges(fabric: nx.Graph) -> Iterator[Tuple[SwitchId, SwitchId, dict]]:
    """Each fabric edge once, from its earlier switch, in networkx's order.

    ``fabric.edges`` yields the same, but networkx caches that view on
    the graph and the view holds the graph, so a fabric read through it
    outlives its network until the cycle collector runs.
    """
    seen = set()
    for u, nbrs in fabric.adjacency():
        for v, data in nbrs.items():
            if v not in seen:
                yield u, v, data
        seen.add(u)


class Links(NamedTuple):
    """A fabric's directed links as read-only parallel arrays."""

    tail: np.ndarray  # int32 switch ids
    head: np.ndarray  # int32 switch ids
    capacity: np.ndarray  # float64


class LinkIndex:
    """The integer form of one fabric; each view is built on first use.

    The index holds the fabric graph, not its network, so no reference
    cycle keeps a dropped network alive.  ``switch_ids`` numbers the
    switches in insertion order and ``nodes[i]`` is switch ``i``.
    ``links``: fabric edge ``j`` (in :meth:`Network.edge_list` order)
    gives link ``2j`` from ``u`` to ``v`` and ``2j + 1`` back, each with
    the bundle's full capacity (full duplex).  ``link_ids`` maps a
    directed switch pair to its link, and :meth:`path_links` memoizes
    each path's link ids.  ``neighbors[i]`` lists switch ``i``'s
    neighbors in the fabric's adjacency order, the order networkx's
    searches visit them in, so a search over these lists breaks ties as
    the same search over the graph does; :meth:`adjacency` is their
    sparse matrix.  ``distances`` are the all-pairs hop counts.
    """

    def __init__(self, fabric: nx.Graph) -> None:
        self._fabric = fabric
        self._paths: Dict[Tuple[SwitchId, ...], np.ndarray] = {}

    @cached_property
    def switch_ids(self) -> Dict[SwitchId, int]:
        return {s: i for i, s in enumerate(self._fabric)}

    @cached_property
    def nodes(self) -> List[SwitchId]:
        return list(self.switch_ids)

    @cached_property
    def neighbors(self) -> List[Tuple[int, ...]]:
        ids = self.switch_ids
        return [tuple(map(ids.__getitem__, nbrs))
                for _s, nbrs in self._fabric.adjacency()]

    @cached_property
    def links(self) -> Links:
        ids = self.switch_ids
        tail: List[int] = []
        head: List[int] = []
        capacity: List[float] = []
        # networkx's edge order: each edge once, from its earlier switch.
        for i, (u, nbrs) in enumerate(self._fabric.adjacency()):
            for v, data in nbrs.items():
                j = ids[v]
                if j > i:
                    cap = data["capacity"]
                    if cap <= 0:
                        raise ReproError(
                            f"link {u!r} - {v!r} has non-positive capacity "
                            f"{cap}; flows crossing it could never be "
                            f"allocated a rate"
                        )
                    tail += (i, j)
                    head += (j, i)
                    capacity += (cap, cap)
        links = Links(np.array(tail, dtype=np.int32),
                      np.array(head, dtype=np.int32),
                      np.array(capacity, dtype=np.float64))
        for array in links:
            array.flags.writeable = False
        return links

    @cached_property
    def link_ids(self) -> Dict[Tuple[SwitchId, SwitchId], int]:
        nodes = self.nodes
        tail, head, _capacity = self.links
        hops = zip(map(nodes.__getitem__, tail.tolist()),
                   map(nodes.__getitem__, head.tolist()))
        return dict(zip(hops, range(tail.size)))

    def path_links(self, nodes: Tuple[SwitchId, ...]) -> np.ndarray:
        """Ids of the directed links a switch path crosses, in order.

        Raises :class:`RoutingError` naming the first hop that is not a
        fabric link.
        """
        links = self._paths.get(nodes)
        if links is None:
            try:
                links = np.array([self.link_ids[hop]
                                  for hop in zip(nodes, nodes[1:])],
                                 dtype=np.intp)
            except KeyError as missing:
                u, v = missing.args[0]
                raise RoutingError(
                    f"path uses non-existent link {u!r} - {v!r}"
                ) from None
            self._paths[nodes] = links
        return links

    def adjacency(self) -> "sp.csr_matrix":
        """Unweighted switch adjacency (parallel cables collapse to 1)."""
        import scipy.sparse as sp

        indptr = np.cumsum([0] + [len(nbrs) for nbrs in self.neighbors])
        indices = np.fromiter(chain.from_iterable(self.neighbors),
                              dtype=np.int32, count=indptr[-1])
        return sp.csr_matrix(
            (np.ones(indices.size, dtype=np.int8), indices, indptr),
            shape=(len(self.neighbors), len(self.neighbors)),
        )

    @cached_property
    def distances(self) -> np.ndarray:
        """Dense, read-only ``(n, n)`` hop counts; ``inf`` if unreachable."""
        from scipy.sparse.csgraph import shortest_path

        dist = shortest_path(self.adjacency(), method="D", directed=False,
                             unweighted=True)
        dist.flags.writeable = False
        return dist


def total_ports(net: Network) -> int:
    """Sum of the port budgets over all switches (equipment audit helper)."""
    return sum(net.ports(s) for s in net.switches())


def equipment_signature(net: Network) -> Tuple[int, int, Tuple[int, ...]]:
    """A summary used to check two topologies use identical equipment.

    Returns ``(num_servers, num_switches, sorted port budgets)``.  Two
    networks built "with the same equipment" in the paper's sense must
    have equal signatures.
    """
    budgets = tuple(sorted(net.ports(s) for s in net.switches()))
    return (net.num_servers, net.num_switches, budgets)


def merge_parallel(
    edges: Iterable[Tuple[SwitchId, SwitchId]]
) -> Dict[frozenset, int]:
    """Count multiplicity of undirected edge pairs in ``edges``.

    Keys are 2-element frozensets so that heterogeneous switch kinds
    (whose tuples are not mutually orderable) can be mixed freely.
    Helper for builders that generate raw cable lists before loading them
    into a :class:`Network`.
    """
    counts: Dict[frozenset, int] = {}
    for u, v in edges:
        key = frozenset((u, v))
        counts[key] = counts.get(key, 0) + 1
    return counts
