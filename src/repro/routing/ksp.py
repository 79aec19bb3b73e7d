"""k-shortest-paths routing (paper §2.6, following Jellyfish).

"We use k shortest paths routing for approximated random graphs [23]."
Jellyfish showed that 8-shortest-paths routing captures most of a random
graph's capacity; 8 is therefore the default ``k`` here.

Enumeration uses Yen's algorithm via
:func:`networkx.shortest_simple_paths` (loop-free, ascending length).
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, List, Tuple

import networkx as nx

from repro import obs
from repro.errors import RoutingError
from repro.routing.base import Path, RoutingTable
from repro.topology.elements import Network, SwitchId

#: Jellyfish's recommended path count.
DEFAULT_K = 8


def k_shortest_paths(
    net: Network, src: SwitchId, dst: SwitchId, k: int = DEFAULT_K
) -> List[Path]:
    """The ``k`` shortest loop-free paths between two switches."""
    if k < 1:
        raise RoutingError(f"k must be positive, got {k}")
    if src == dst:
        return [Path((src,))]
    try:
        with obs.timer("routing.ksp.compute_s"):
            raw = list(islice(
                nx.shortest_simple_paths(net.fabric, src, dst), k
            ))
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        raise RoutingError(f"no path from {src!r} to {dst!r}") from None
    obs.incr("routing.ksp.pairs")
    obs.incr("routing.ksp.paths", len(raw))
    return [Path(tuple(nodes)) for nodes in raw]


def build_ksp_table(
    net: Network,
    pairs: Iterable[Tuple[SwitchId, SwitchId]],
    k: int = DEFAULT_K,
) -> RoutingTable:
    """KSP routing table for the given switch pairs.

    A (src, dst) pair repeated in the input keeps the paths of its first
    occurrence: the table itself is the memo, so Yen's algorithm runs
    once per pair.  Repeats count as ``routing.ksp.memo_hits``.
    """
    table = RoutingTable(name=f"ksp{k}[{net.name}]")
    with obs.span("build_ksp_table", k=k, net=net.name):
        for src, dst in pairs:
            if src != dst:
                if table.has_route(src, dst):
                    obs.incr("routing.ksp.memo_hits")
                else:
                    table.add(k_shortest_paths(net, src, dst, k=k))
    return table


def path_stretch(paths: List[Path]) -> float:
    """Longest/shortest hop ratio within a path set (diversity metric)."""
    if not paths:
        raise RoutingError("empty path set")
    hop_counts = [p.hops for p in paths]
    shortest = min(hop_counts)
    if shortest == 0:
        return 1.0
    return max(hop_counts) / shortest
