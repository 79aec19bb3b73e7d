"""Cut-based capacity metrics: bisection bandwidth and pair cuts.

The paper argues topologies by throughput; operators also reason with
**bisection bandwidth** — the worst cut splitting the servers in half.
Exact bisection is NP-hard, so this module provides the standard
estimates used in the topology literature:

* :func:`random_bisection_bandwidth` — min over random server halvings
  of the max-flow between the halves' switch sets (a randomized
  estimate; switches hosting servers of both halves carry transit only,
  so the value is a comparison signal rather than a bound);
* :func:`sparsest_pair_cut` — min over sampled switch pairs of their
  max-flow (a cheap lower-level capacity signal used by tests).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.errors import SolverError
from repro.mcf.maxflow import max_flow, single_pair_max_flow
from repro.topology.elements import Network


def flow_between_sets(
    net: Network, side_a, side_b
) -> float:
    """Max flow from switch set ``side_a`` to ``side_b`` (super nodes)."""
    side_a, side_b = set(side_a), set(side_b)
    if not side_a or not side_b:
        raise SolverError("both sides of a cut need at least one switch")
    if side_a & side_b:
        raise SolverError("cut sides overlap")
    return max_flow(net, side_a, side_b)


def random_bisection_bandwidth(
    net: Network,
    trials: int = 8,
    rng: Optional[random.Random] = None,
) -> float:
    """Estimate bisection bandwidth over random server halvings.

    Servers are split into equal halves uniformly at random; each trial
    measures the max flow between the two halves' switch sets (switches
    hosting servers from both halves join neither side's super node and
    simply carry transit).  The minimum over trials is reported.
    """
    rng = rng or random.Random(0)
    servers = sorted(net.servers())
    if len(servers) < 2:
        raise SolverError("bisection needs at least two servers")
    best = float("inf")
    for _ in range(trials):
        shuffled = list(servers)
        rng.shuffle(shuffled)
        half = len(shuffled) // 2
        left = {net.server_switch(s) for s in shuffled[:half]}
        right = {net.server_switch(s) for s in shuffled[half:]}
        left, right = left - right, right - left
        if not left or not right:
            continue
        best = min(best, flow_between_sets(net, left, right))
    if best == float("inf"):
        raise SolverError("all trials degenerated (too few switches?)")
    return best


def sparsest_pair_cut(
    net: Network,
    samples: int = 16,
    rng: Optional[random.Random] = None,
) -> float:
    """Min max-flow over sampled switch pairs (capacity floor signal)."""
    rng = rng or random.Random(0)
    switches = [s for s in net.switches() if net.degree(s) > 0]
    if len(switches) < 2:
        raise SolverError("need two connected switches")
    best = float("inf")
    for _ in range(samples):
        u, v = rng.sample(switches, 2)
        best = min(best, single_pair_max_flow(net, u, v))
    return best
