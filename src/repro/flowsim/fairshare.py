"""Max-min fair rate allocation over routed flows (water-filling).

The paper evaluates throughput with an optimal-routing LP; real networks
run flows over concrete paths with congestion control approximating
max-min fairness.  This module provides the classic progressive-filling
algorithm: repeatedly find the most-constrained links, freeze the rates
of the flows crossing them at their fair share, remove those rates from
every link the flows cross, and continue.

It serves as a *routing-sensitive* second opinion next to the LP: the
same workload evaluated over two-level or KSP path choices yields a rate
profile whose aggregate never exceeds the LP optimum and whose trends
across topologies match it (cross-checked in tests and an ablation
bench).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

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
    direction (full-duplex, consistent with the MCF model).  The filling
    runs as numpy array operations over the network's
    :class:`~repro.topology.elements.LinkIndex`: each round costs a
    fixed number of passes over the still-active flows' (flow, link)
    pairs, and there is one round per distinct rate level, not one per
    bottleneck link.

    ``monitor`` (a :class:`repro.monitor.NetworkMonitor`, or anything
    with ``on_allocation``) receives the per-directed-link rates and
    active-flow counts of this allocation, stamped at simulated time
    ``now``; ``None`` skips all monitoring work.
    """
    index = net.link_index()
    links = [index.path_links(flow.path.nodes) for flow in flows]
    ids = [flow.flow_id for flow in flows]
    if len(set(ids)) != len(ids):
        raise ReproError("flow ids must be unique")
    demand = None
    if any(flow.demand is not None for flow in flows):
        demand = np.array(
            [math.inf if f.demand is None else f.demand for f in flows],
            dtype=float,
        )
    rates = dict(zip(ids, _water_fill(index.capacity, links, demand).tolist()))
    if monitor is not None:
        monitor.on_allocation(now, *link_allocation(flows, rates))
    return FairShareResult(rates=rates)


def _water_fill(
    capacity: np.ndarray,
    links: List[np.ndarray],
    demand: Optional[np.ndarray],
) -> np.ndarray:
    """Max-min rates of flows crossing ``links`` (ids into ``capacity``).

    ``demand`` holds each flow's rate ceiling (``inf`` for an elastic
    flow); ``None`` means every flow is elastic.  Each round finds the
    lowest fair share ``level`` among the loaded links.  Active flows
    whose demand is at most ``level`` freeze at their demand; otherwise
    every flow crossing a link whose share equals ``level`` freezes at
    ``level``.  Frozen flows give their rate back off every link they
    cross and leave the incidence.  Zero-hop flows never cross the
    fabric: their rate is their demand.
    """
    n = len(links)
    hops = np.fromiter(map(len, links), dtype=np.intp, count=n)
    # Active flows hold nan until they freeze.
    rates = np.where(hops == 0, math.inf if demand is None else demand,
                     math.nan)
    if not hops.any():
        return rates
    # One entry per (flow, link) pair, links renumbered densely.  An
    # entry leaves when its flow freezes, so every link an entry names
    # carries at least one active flow.
    crossings = np.concatenate(links)
    owner = np.repeat(np.arange(n), hops)
    count = np.bincount(crossings, minlength=capacity.size)
    used = np.flatnonzero(count)
    slot = np.searchsorted(used, crossings)
    count = count[used]
    remaining = capacity[used]
    while True:
        share = remaining[slot] / count[slot]
        level = share.min()
        hit = None if demand is None else demand[owner] <= level
        if hit is not None and hit.any():
            rates[owner[hit]] = demand[owner[hit]]
        else:
            rates[owner[share == level]] = level
            hit = rates[owner] == level
        if hit.all():
            return rates
        crossed = slot[hit]
        count -= np.bincount(crossed, minlength=used.size)
        remaining -= np.bincount(crossed, weights=rates[owner[hit]],
                                 minlength=used.size)
        np.maximum(remaining, 0.0, out=remaining)
        owner, slot = owner[~hit], slot[~hit]
