"""Graph metrics: server-pair path lengths and link/degree statistics.

The paper's primary structural metric is the **average path length (APL)
in hops between server pairs** (Figures 5 and 6).  Converter switches are
physical-layer devices and contribute no hops; server-to-switch links
contribute one hop each, so two servers on different switches ``u`` and
``v`` are ``d(u, v) + 2`` hops apart and two servers on the same switch
are 2 hops apart.

Distances are computed switch-level with :mod:`scipy.sparse.csgraph`
(C-implemented BFS/Dijkstra), then averaged with server-count weights —
orders of magnitude faster than per-server BFS in Python.  They are the
fabric's :class:`~repro.topology.elements.LinkIndex` view, so every
metric on one fabric shares one all-pairs computation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.topology.elements import Network, ServerId, SwitchId


def switch_distances(
    net: Network,
) -> Tuple[np.ndarray, Dict[SwitchId, int]]:
    """All-pairs switch hop distances and the switch index used.

    Returns a dense, read-only ``(n, n)`` float array (``inf`` marks
    disconnected pairs) and the switch -> row index mapping (read it, do
    not mutate it).  Both are the network's link index views, kept
    until its fabric changes.
    """
    index = net.link_index()
    return index.distances, index.switch_ids


def is_connected(net: Network) -> bool:
    """Whether the switch fabric is a single connected component."""
    from scipy.sparse.csgraph import connected_components

    if net.num_switches == 0:
        return True
    ncomp, _labels = connected_components(net.link_index().adjacency(),
                                          directed=False)
    return ncomp == 1


def _server_counts(
    net: Network, idx: Dict[SwitchId, int], servers: Optional[Iterable[ServerId]]
) -> np.ndarray:
    counts = np.zeros(len(idx), dtype=np.int64)
    if servers is None:
        for switch, c in net.host_counts().items():
            counts[idx[switch]] = c
    else:
        for server in servers:
            counts[idx[net.server_switch(server)]] += 1
    return counts


def _weighted_pair_hops(
    dist: np.ndarray, counts: np.ndarray
) -> Tuple[float, float]:
    """Total (hops, pair count) over ordered server pairs.

    Cross-switch pairs contribute ``d(u, v) + 2`` hops; same-switch pairs
    contribute 2 hops (server - switch - server).
    """
    active = np.flatnonzero(counts)
    if active.size == 0:
        return 0.0, 0.0
    c = counts[active].astype(np.float64)
    sub = dist[np.ix_(active, active)]
    if np.isinf(sub).any():
        raise TopologyError("server switches are not mutually reachable")
    weights = np.outer(c, c)
    np.fill_diagonal(weights, 0.0)
    total_servers = c.sum()
    cross_pairs = float(weights.sum())
    same_pairs = float((c * (c - 1)).sum())
    hops = float((weights * (sub + 2.0)).sum()) + 2.0 * same_pairs
    pairs = cross_pairs + same_pairs
    assert abs(pairs - total_servers * (total_servers - 1)) < 1e-6
    return hops, pairs


def average_server_path_length(net: Network) -> float:
    """Average hop count over all ordered server pairs (paper Fig. 5)."""
    if net.num_servers < 2:
        raise TopologyError("need at least two servers for a path length")
    dist, idx = switch_distances(net)
    counts = _server_counts(net, idx, None)
    hops, pairs = _weighted_pair_hops(dist, counts)
    return hops / pairs


def average_within_group_path_length(
    net: Network,
    groups: Sequence[Iterable[ServerId]],
) -> float:
    """Average hop count over server pairs within each group (Fig. 6).

    Groups are aggregated by pair count (equal-size groups therefore get
    equal weight).  Singleton and empty groups contribute nothing.
    """
    dist, idx = switch_distances(net)
    total_hops = 0.0
    total_pairs = 0.0
    for group in groups:
        counts = _server_counts(net, idx, group)
        hops, pairs = _weighted_pair_hops(dist, counts)
        total_hops += hops
        total_pairs += pairs
    if total_pairs == 0:
        raise TopologyError("no group contains two or more servers")
    return total_hops / total_pairs


def server_counts_by_kind(net: Network) -> Dict[str, int]:
    """Total servers attached to each switch kind (e.g. edge/agg/core)."""
    out: Dict[str, int] = {}
    for switch, count in net.host_counts().items():
        out[switch.kind] = out.get(switch.kind, 0) + count
    return out


def server_spread(net: Network, kind: str) -> Tuple[int, int]:
    """(min, max) servers per switch over all switches of ``kind``.

    Used to verify the paper's wiring Property 1 ("servers are
    distributed uniformly across the core switches").
    """
    switches = net.switches_of_kind(kind)
    if not switches:
        raise TopologyError(f"no switches of kind {kind!r}")
    per_switch = [net.server_count(s) for s in switches]
    return min(per_switch), max(per_switch)


def link_kind_profile(net: Network, switch: SwitchId) -> Dict[str, int]:
    """Cable count from ``switch`` to each neighbor kind.

    Used to verify wiring Property 2 ("the core switches have equal
    number of links of the same type").
    """
    profile: Dict[str, int] = {}
    for nbr in net.fabric[switch]:
        mult = net.fabric[switch][nbr]["mult"]
        profile[nbr.kind] = profile.get(nbr.kind, 0) + mult
    return profile


def degree_histogram(net: Network) -> Dict[int, int]:
    """Histogram of cable-level switch degrees."""
    hist: Dict[int, int] = {}
    for s in net.switches():
        d = net.degree(s)
        hist[d] = hist.get(d, 0) + 1
    return hist
