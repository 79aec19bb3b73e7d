"""Max-min fair rate allocation over routed flows (water-filling).

The paper evaluates throughput with an optimal-routing LP; real networks
run flows over concrete paths with congestion control approximating
max-min fairness.  This module provides the classic progressive-filling
algorithm: repeatedly find the most-constrained link, freeze the rates of
the flows crossing it at their fair share, remove the link's residual
capacity, and continue.

It serves as a *routing-sensitive* second opinion next to the LP: the
same workload evaluated over ECMP or KSP path choices yields a rate
profile whose aggregate never exceeds the LP optimum and whose trends
across topologies match it (cross-checked in tests and an ablation
bench).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.routing.base import Path
from repro.topology.elements import Network, SwitchId

LinkKey = Tuple[SwitchId, SwitchId]


@dataclass(frozen=True)
class RoutedFlow:
    """A flow pinned to one switch-level path.

    ``flow_id`` identifies the flow; ``path`` may have zero hops (both
    endpoints on one switch), in which case the flow is unconstrained by
    the fabric and gets rate ``math.inf`` unless ``demand`` caps it.
    ``demand`` is an optional rate ceiling (None = elastic flow).
    """

    flow_id: int
    path: Path
    demand: Optional[float] = None


@dataclass
class FairShareResult:
    """Per-flow max-min rates plus aggregate statistics."""

    rates: Dict[int, float]

    @property
    def total(self) -> float:
        return sum(r for r in self.rates.values() if math.isfinite(r))

    @property
    def min_rate(self) -> float:
        return min(self.rates.values()) if self.rates else 0.0

    def bounded_rates(self) -> Dict[int, float]:
        """Rates of fabric-constrained flows only (finite values)."""
        return {f: r for f, r in self.rates.items() if math.isfinite(r)}


def link_allocation(
    flows: List[RoutedFlow], rates: Dict[int, float]
) -> Tuple[Dict[LinkKey, float], Dict[LinkKey, int]]:
    """Fold per-flow rates into per-directed-link (rate, flow count).

    The monitoring plane's view of an allocation: summing the returned
    rates over all links equals ``sum(rate * hops)`` over the flows,
    which tests use to cross-check monitor samples against the
    allocator.  Infinite-rate (zero-hop) flows touch no link.
    """
    link_rates: Dict[LinkKey, float] = {}
    link_flows: Dict[LinkKey, int] = {}
    for flow in flows:
        rate = rates[flow.flow_id]
        if not math.isfinite(rate):
            continue
        for u, v in flow.path.edges():
            key = (u, v)
            link_rates[key] = link_rates.get(key, 0.0) + rate
            link_flows[key] = link_flows.get(key, 0) + 1
    return link_rates, link_flows


def max_min_fair_rates(
    net: Network,
    flows: List[RoutedFlow],
    monitor=None,
    now: float = 0.0,
) -> FairShareResult:
    """Progressive filling over directed link capacities.

    Each fabric cable contributes its capacity independently per
    direction (full-duplex, consistent with the MCF model).  Runs in
    O(links x flows) in the worst case — fine for the tens of thousands
    of flows the examples and benches use.

    ``monitor`` (a :class:`repro.monitor.NetworkMonitor`, or anything
    with ``on_allocation``) receives the per-directed-link rates and
    active-flow counts of this allocation, stamped at simulated time
    ``now``; ``None`` skips all monitoring work.
    """
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
    active: Dict[int, "RoutedFlow"],
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
