"""The dict progressive-filling allocator, a reference for tests.

The straightforward form of the algorithm ``repro.flowsim.fairshare``
vectorizes: every call builds a capacity dict from the fabric's edge
list and re-validates every path, and each round scans all loaded links
for the single most-constrained one and freezes only its flows.
``test_fairshare_oracle.py`` holds the array kernel to its rates.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.errors import ReproError
from repro.flowsim.fairshare import (
    FairShareResult,
    LinkKey,
    RoutedFlow,
    link_allocation,
)
from repro.topology.elements import Network


def max_min_fair_rates_oracle(
    net: Network,
    flows: List[RoutedFlow],
    monitor=None,
    now: float = 0.0,
) -> FairShareResult:
    """Progressive filling over directed link capacities."""
    capacity: Dict[LinkKey, float] = {}
    for u, v, cap in net.edge_list():
        if cap <= 0:
            raise ReproError(
                f"link {u!r} - {v!r} has non-positive capacity {cap}; "
                f"flows crossing it could never be allocated a rate"
            )
        capacity[(u, v)] = cap
        capacity[(v, u)] = cap

    flows_on: Dict[LinkKey, List[RoutedFlow]] = {}
    for flow in flows:
        flow.path.validate_on(net)
        for u, v in flow.path.edges():
            flows_on.setdefault((u, v), []).append(flow)

    rates: Dict[int, float] = {}
    active: Dict[int, RoutedFlow] = {f.flow_id: f for f in flows}
    if len(active) != len(flows):
        raise ReproError("flow ids must be unique")
    remaining = dict(capacity)
    active_count: Dict[LinkKey, int] = {
        link: len(fs) for link, fs in flows_on.items()
    }

    # Zero-hop flows (endpoints on one switch) never cross the fabric;
    # freeze them immediately or they would keep the loop alive forever.
    for flow in list(active.values()):
        if flow.path.hops == 0:
            rate = flow.demand if flow.demand is not None else math.inf
            _freeze(flow, rate, rates, active, remaining, active_count)

    # Demand-capped flows that the fabric never saturates finish at their
    # demand; handle them inside the loop via the fair-share comparison.
    while active:
        # Most-constrained link: minimal fair share among loaded links.
        best_link = None
        best_share = math.inf
        for link, count in active_count.items():
            if count <= 0:
                continue
            share = remaining[link] / count
            if share < best_share:
                best_share = share
                best_link = link
        # Demand ceilings below the bottleneck share freeze first.
        capped = [
            f for f in active.values()
            if f.demand is not None and f.demand <= best_share
        ]
        if capped:
            for flow in capped:
                _freeze(flow, flow.demand, rates, active, remaining,
                        active_count)
            continue
        if best_link is None:
            # Remaining flows cross no loaded link: unconstrained.
            for flow in list(active.values()):
                rate = flow.demand if flow.demand is not None else math.inf
                _freeze(flow, rate, rates, active, remaining, active_count)
            break
        for flow in list(flows_on.get(best_link, [])):
            if flow.flow_id in active:
                _freeze(flow, best_share, rates, active, remaining,
                        active_count)
    if monitor is not None:
        monitor.on_allocation(now, *link_allocation(flows, rates))
    return FairShareResult(rates=rates)


def _freeze(
    flow: RoutedFlow,
    rate: float,
    rates: Dict[int, float],
    active: Dict[int, RoutedFlow],
    remaining: Dict[LinkKey, float],
    active_count: Dict[LinkKey, int],
) -> None:
    rates[flow.flow_id] = rate
    del active[flow.flow_id]
    if not math.isfinite(rate):
        return
    for u, v in flow.path.edges():
        key = (u, v)
        remaining[key] = max(0.0, remaining[key] - rate)
        active_count[key] -= 1
