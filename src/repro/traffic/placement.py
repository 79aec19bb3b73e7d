"""Workload placement policies (paper §3.1).

"We consider strong, weak, and no locality of workload placement ...
the workload is placed continuously across servers, randomly in Pods,
or randomly in the entire network."

A *placement* maps logical cluster members (0 .. total_members-1) to
server ids.  Members wrap around the server pool when there are more
members than servers (see :mod:`repro.traffic.clusters`).

* :func:`place_continuous` — strong locality: member ``i`` goes to server
  ``i mod S`` in dense id order (dense ids pack racks, then Pods).
* :func:`place_random_global` — no locality: members land on uniformly
  random servers (a random permutation when members fit; balanced wrap
  otherwise).
* :func:`place_random_in_pods` — weak locality: each cluster picks random
  Pods that still have free servers and fills random free servers there,
  spilling to further random Pods when one runs out — "the worst-case
  simulation of resource fragmentation in workload placement".
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.errors import TrafficError
from repro.topology.clos import ClosParams


def place_continuous(total_members: int, num_servers: int) -> List[int]:
    """Strong locality: consecutive members on consecutive servers."""
    _check(total_members, num_servers)
    return [i % num_servers for i in range(total_members)]


def place_random_global(
    total_members: int, num_servers: int, rng: random.Random
) -> List[int]:
    """No locality: members scattered uniformly over the whole network.

    When members fit into the pool the result is a partial random
    permutation (each server hosts at most one member, matching "each
    server being involved in a single cluster"); otherwise servers are
    recycled as evenly as possible, in random order.
    """
    _check(total_members, num_servers)
    placement: List[int] = []
    while len(placement) < total_members:
        batch = list(range(num_servers))
        rng.shuffle(batch)
        placement.extend(batch[: total_members - len(placement)])
    return placement


def place_random_in_pods(
    total_members: int,
    params: ClosParams,
    cluster_size: int,
    rng: random.Random,
) -> List[int]:
    """Weak locality: clusters packed into random Pods with free servers.

    Clusters are processed in order; each repeatedly picks a random Pod
    that still has free servers and consumes random free servers there
    until the cluster is complete.  When every server is taken and
    members remain (wrapped small-k case), the pool refills.
    """
    num_servers = params.num_servers
    _check(total_members, num_servers)
    if total_members % cluster_size != 0:
        raise TrafficError("total members must be a multiple of cluster size")

    free: List[List[int]] = [list(params.pod_servers(p)) for p in range(params.pods)]
    placement: List[int] = []
    for _ in range(total_members // cluster_size):
        needed = cluster_size
        while needed > 0:
            pods_with_free = [p for p, servers in enumerate(free) if servers]
            if not pods_with_free:
                free = [list(params.pod_servers(p)) for p in range(params.pods)]
                pods_with_free = list(range(params.pods))
            pod = rng.choice(pods_with_free)
            take = min(needed, len(free[pod]))
            chosen = rng.sample(free[pod], take)
            chosen_set = set(chosen)
            free[pod] = [s for s in free[pod] if s not in chosen_set]
            placement.extend(chosen)
            needed -= take
    return placement


def placement_by_name(
    name: str,
    total_members: int,
    params: ClosParams,
    cluster_size: int,
    rng: random.Random,
) -> List[int]:
    """Dispatch on the paper's locality names.

    ``"locality"`` -> continuous, ``"weak locality"`` -> random in Pods,
    ``"no locality"`` -> random global.
    """
    if name == "locality":
        return place_continuous(total_members, params.num_servers)
    if name == "weak locality":
        return place_random_in_pods(total_members, params, cluster_size, rng)
    if name == "no locality":
        return place_random_global(total_members, params.num_servers, rng)
    raise TrafficError(f"unknown placement policy {name!r}")


def _check(total_members: int, num_servers: int) -> None:
    if total_members < 1:
        raise TrafficError("need at least one member to place")
    if num_servers < 1:
        raise TrafficError("need at least one server")


def pod_groups(params: ClosParams) -> List[Sequence[int]]:
    """Server ids grouped by Pod (the in-Pod pairs of Figure 6)."""
    return [params.pod_servers(p) for p in range(params.pods)]
