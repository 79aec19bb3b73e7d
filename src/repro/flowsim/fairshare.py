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
from itertools import compress
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ReproError
from repro.routing.base import Path
from repro.topology.elements import LinkIndex, Network, SwitchId

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


class FlowSet:
    """Routed flows and their (flow, link) incidence over one link index.

    The form the allocator works on, kept so that a caller whose flows
    change a few at a time never regathers the rest.  ``flows`` and
    ``ids`` list the flows in admission order; ``owner`` and
    ``crossing`` are the flow-major (flow position, link id) entries of
    every link a flow crosses; ``count`` holds each link id's number of
    entries, over all of ``index``'s links.  :meth:`admit` appends flows
    and :meth:`trim` drops them, keeping the others' order, so every
    array equals the one a set built afresh from :attr:`flows` holds.
    """

    def __init__(self, index: LinkIndex,
                 flows: Iterable[RoutedFlow] = ()) -> None:
        self.index = index
        self.flows: List[RoutedFlow] = []
        self.ids: List[int] = []
        self.owner = np.empty(0, dtype=np.intp)
        self.crossing = np.empty(0, dtype=np.intp)
        self.count = np.zeros(index.links.capacity.size, dtype=np.intp)
        self.capped = 0  # flows with a demand ceiling
        self.admit(flows)

    def __len__(self) -> int:
        return len(self.flows)

    def __iter__(self) -> Iterator[RoutedFlow]:
        return iter(self.flows)

    def admit(self, flows: Iterable[RoutedFlow]) -> None:
        """Append ``flows``, in order, after the flows already here.

        Every new path is checked first, in order, then the flow ids;
        nothing changes when either check raises.
        """
        flows = list(flows)
        links = [self.index.path_links(flow.path.nodes) for flow in flows]
        ids = self.ids + [flow.flow_id for flow in flows]
        if len(set(ids)) != len(ids):
            raise ReproError("flow ids must be unique")
        first, entries = len(self.flows), self.crossing.size
        hops = [len(link_ids) for link_ids in links]
        self.owner = np.concatenate(
            (self.owner, np.repeat(np.arange(first, len(ids)), hops)))
        self.crossing = np.concatenate((self.crossing, *links))
        np.add.at(self.count, self.crossing[entries:], 1)
        self.flows += flows
        self.ids = ids
        self.capped += sum(flow.demand is not None for flow in flows)

    def trim(self, keep: np.ndarray) -> None:
        """Drop the flows where the boolean array ``keep`` is False."""
        entry = keep[self.owner]
        np.subtract.at(self.count, self.crossing[~entry], 1)
        self.crossing = self.crossing[entry]
        position = np.add.accumulate(keep, dtype=np.intp) - 1
        self.owner = position[self.owner[entry]]
        mask = keep.tolist()
        self.flows = list(compress(self.flows, mask))
        self.ids = list(compress(self.ids, mask))
        if self.capped:
            self.capped = sum(flow.demand is not None for flow in self.flows)

    def water_fill(self) -> np.ndarray:
        """Max-min rates of :attr:`flows`, in their order.

        Each round finds the lowest fair share ``level`` among the
        loaded links.  Active flows whose demand is at most ``level``
        freeze at their demand; otherwise every flow crossing a link
        whose share equals ``level`` freezes at ``level``.  Frozen flows
        give their rate back off every link they cross and leave the
        round's entries.  Zero-hop flows never cross the fabric: their
        rate is their demand (``inf`` for an elastic flow).
        """
        demand = None
        if self.capped:
            demand = np.array(
                [math.inf if f.demand is None else f.demand
                 for f in self.flows],
                dtype=float,
            )
        owner, crossing = self.owner, self.crossing
        # Active flows hold nan until they freeze.
        rates = np.where(np.bincount(owner, minlength=len(self.flows)) == 0,
                         math.inf if demand is None else demand, math.nan)
        if not crossing.size:
            return rates
        # Every link an entry names carries at least one active flow:
        # an entry leaves when its flow freezes.
        count = self.count.copy()
        remaining = self.index.links.capacity.copy()
        while True:
            share = remaining[crossing] / count[crossing]
            level = share.min()
            hit = None if demand is None else demand[owner] <= level
            if hit is not None and hit.any():
                rates[owner[hit]] = demand[owner[hit]]
            else:
                rates[owner[share == level]] = level
                hit = rates[owner] == level
            if hit.all():
                return rates
            crossed = crossing[hit]
            count -= np.bincount(crossed, minlength=count.size)
            remaining -= np.bincount(crossed, weights=rates[owner[hit]],
                                     minlength=count.size)
            np.maximum(remaining, 0.0, out=remaining)
            live = ~hit
            owner, crossing = owner[live], crossing[live]


def max_min_fair_rates(
    net: Network,
    flows: Union[List[RoutedFlow], FlowSet],
    monitor=None,
    now: float = 0.0,
) -> FairShareResult:
    """Progressive filling over directed link capacities.

    Each fabric cable contributes its capacity independently per
    direction (full-duplex, consistent with the MCF model).  The filling
    runs as numpy array operations over a :class:`FlowSet` on the
    network's :class:`~repro.topology.elements.LinkIndex`: each round
    costs a fixed number of passes over the still-active flows' (flow,
    link) entries, and there is one round per distinct rate level, not
    one per bottleneck link.

    ``flows`` is a list of :class:`RoutedFlow`, from which a set is
    built on the spot (checking the capacities, then every path, then
    the flow ids), or a :class:`FlowSet` the caller keeps over
    ``net.link_index()``, as :class:`~repro.flowsim.FlowSimulator` does
    from event to event.

    ``monitor`` (a :class:`repro.monitor.NetworkMonitor`, or anything
    with ``on_allocation``) receives the per-directed-link rates and
    active-flow counts of this allocation, stamped at simulated time
    ``now``; ``None`` skips all monitoring work.
    """
    if not isinstance(flows, FlowSet):
        flows = FlowSet(net.link_index(), flows)
    elif flows.index is not net.link_index():
        raise ReproError("the flow set is kept over another fabric's links")
    rates = dict(zip(flows.ids, flows.water_fill().tolist()))
    if monitor is not None:
        monitor.on_allocation(now, *link_allocation(flows.flows, rates))
    return FairShareResult(rates=rates)
