"""Jellyfish-style random graph builder (Singla et al., NSDI 2012).

The paper's "random graph" baseline is a Jellyfish network built with the
same equipment as the fat-tree / flat-tree under test: the same number of
switches, the same port count per switch, and the same number of servers.
Servers are spread as evenly as possible over the switches and the
remaining ports are wired into a random (near-)regular graph.

The construction follows the Jellyfish procedure: draw random candidate
switch pairs with free ports, reject self-loops and duplicate links, and
when the process wedges, perform the edge-swap repair moves from the
Jellyfish paper until (almost) every port is used.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import obs
from repro.errors import TopologyError
from repro.topology.clos import ClosParams, fat_tree_params
from repro.topology.elements import Network, PlainSwitch

_MAX_STUCK_DRAWS = 200


@dataclass(frozen=True)
class JellyfishSpec:
    """Equipment description for a Jellyfish build."""

    num_switches: int
    ports_per_switch: int
    num_servers: int

    def __post_init__(self) -> None:
        if self.num_switches < 2:
            raise TopologyError("Jellyfish needs at least 2 switches")
        if self.ports_per_switch < 1:
            raise TopologyError("switches need at least one port")
        capacity = self.num_switches * self.ports_per_switch
        if self.num_servers >= capacity:
            raise TopologyError(
                f"{self.num_servers} servers leave no network ports "
                f"({capacity} total ports)"
            )

    @classmethod
    def matching(cls, params: ClosParams, ports: Optional[int] = None) -> "JellyfishSpec":
        """Equipment matching a Clos layout (same switches/ports/servers).

        ``ports`` overrides the per-switch port count; by default all Clos
        switches are assumed to share one (true for fat-tree), and the
        maximum budget is used otherwise.
        """
        if ports is None:
            ports = max(params.edge_ports, params.agg_ports, params.core_ports)
        return cls(
            num_switches=params.num_switches,
            ports_per_switch=ports,
            num_servers=params.num_servers,
        )


def build_jellyfish(
    spec: JellyfishSpec,
    rng: Optional[random.Random] = None,
    name: str = "jellyfish",
) -> Network:
    """Build a Jellyfish random graph for ``spec``.

    Server ids are assigned by a random permutation over the host slots,
    so consecutive server ids land on unrelated switches — this models
    the paper's observation that in a random graph "servers scatter
    around the network".

    An odd total number of free network ports necessarily leaves one port
    unused; any other leftover is repaired away or, in pathological tiny
    cases, reported via the returned network's free-port audit.
    """
    rng = rng or random.Random(0)
    with obs.timer("topology.jellyfish.build_s"):
        net = Network(name)
        switches = [PlainSwitch(i) for i in range(spec.num_switches)]
        for s in switches:
            net.add_switch(s, spec.ports_per_switch)

        _attach_servers(net, switches, spec.num_servers, rng)
        free = {s: net.ports_free(s) for s in switches}
        _random_match(net, free, rng)
        _repair_leftovers(net, free, rng)
    obs.incr("topology.jellyfish.builds")
    obs.incr("topology.jellyfish.cables", net.num_cables)
    return net


def build_jellyfish_like_fat_tree(
    k: int, rng: Optional[random.Random] = None
) -> Network:
    """Jellyfish with the same equipment as fat-tree(k) (paper §3.1)."""
    spec = JellyfishSpec.matching(fat_tree_params(k))
    return build_jellyfish(spec, rng=rng, name=f"jellyfish(k={k})")


def _attach_servers(
    net: Network,
    switches: List[PlainSwitch],
    num_servers: int,
    rng: random.Random,
) -> None:
    """Spread servers evenly; break ties randomly; scatter ids randomly."""
    base, extra = divmod(num_servers, len(switches))
    lucky = set(rng.sample(range(len(switches)), extra))
    slots: List[PlainSwitch] = []
    for i, s in enumerate(switches):
        slots.extend([s] * (base + (1 if i in lucky else 0)))
    rng.shuffle(slots)
    for server_id, host in enumerate(slots):
        net.add_server(server_id, host)


def _random_match(
    net: Network, free: Dict[PlainSwitch, int], rng: random.Random
) -> None:
    """Randomly pair free ports until no easy progress remains."""
    candidates = [s for s, f in free.items() if f > 0]
    stuck = 0
    rejected = 0
    while len(candidates) >= 2 and stuck < _MAX_STUCK_DRAWS:
        u, v = rng.sample(candidates, 2)
        if net.fabric.has_edge(u, v):
            stuck += 1
            rejected += 1
            continue
        net.add_cable(u, v)
        stuck = 0
        for s in (u, v):
            free[s] -= 1
            if free[s] == 0:
                candidates.remove(s)
    obs.incr("topology.jellyfish.rejected_draws", rejected)


def _repair_leftovers(
    net: Network, free: Dict[PlainSwitch, int], rng: random.Random
) -> None:
    """Jellyfish repair: absorb leftover ports via edge swaps.

    A switch ``w`` with two or more free ports steals a random existing
    link ``(u, v)`` (with neither endpoint adjacent to ``w``) and replaces
    it with ``(w, u)`` and ``(w, v)``.  Two leftover ports on already
    adjacent switches are resolved by a 2-swap.  A single global leftover
    port is unavoidable when the total stub count is odd.
    """
    iterations = 0
    try:
        for _ in range(10 * len(free) + 100):
            iterations += 1
            leftovers = [s for s, f in free.items() if f > 0]
            total_free = sum(free[s] for s in leftovers)
            if total_free <= 1:
                return
            if len(leftovers) == 1 or max(free[s] for s in leftovers) >= 2:
                w = max(leftovers, key=lambda s: free[s])
                if _absorb_with_swap(net, free, w, rng):
                    continue
                return
            u, v = rng.sample(leftovers, 2)
            if not net.fabric.has_edge(u, v):
                net.add_cable(u, v)
                free[u] -= 1
                free[v] -= 1
                continue
            if not _cross_swap(net, free, u, v, rng):
                return
    finally:
        obs.incr("topology.jellyfish.repair_iterations", iterations)


def _absorb_with_swap(
    net: Network,
    free: Dict[PlainSwitch, int],
    w: PlainSwitch,
    rng: random.Random,
) -> bool:
    """Remove a random link (u, v) and add (w, u), (w, v)."""
    edges = [
        (u, v)
        for u, v, _cap in net.edge_list()
        if w not in (u, v)
        and not net.fabric.has_edge(w, u)
        and not net.fabric.has_edge(w, v)
    ]
    if not edges:
        return False
    u, v = rng.choice(edges)
    net.remove_cable(u, v)
    net.add_cable(w, u)
    net.add_cable(w, v)
    free[w] -= 2
    return True


def _cross_swap(
    net: Network,
    free: Dict[PlainSwitch, int],
    u: PlainSwitch,
    v: PlainSwitch,
    rng: random.Random,
) -> bool:
    """Remove a random link (x, y) and add (u, x), (v, y).

    Used when the last two free ports sit on switches that are already
    adjacent, so a direct link would create a parallel cable.
    """
    edges = [
        (x, y)
        for x, y, _cap in net.edge_list()
        if u not in (x, y)
        and v not in (x, y)
        and not net.fabric.has_edge(u, x)
        and not net.fabric.has_edge(v, y)
    ]
    if not edges:
        return False
    x, y = rng.choice(edges)
    net.remove_cable(x, y)
    net.add_cable(u, x)
    net.add_cable(v, y)
    free[u] -= 1
    free[v] -= 1
    return True
