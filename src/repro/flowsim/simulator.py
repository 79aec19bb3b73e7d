"""Fluid flow-level simulator: arrivals, departures, completion times.

A discrete-event simulator over the max-min fair allocator: between
events every active flow transfers at its fair rate; events are flow
arrivals and completions.  Rates are recomputed at each event (ideal
fluid congestion control), which is the standard flow-level model used
to study data center topologies when packet-level detail is not needed.

This extends the paper's evaluation (which is LP-only) with
*routing-sensitive, time-varying* behavior: e.g. how flow completion
times change when the controller converts the topology under load.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.errors import ReproError
from repro.flowsim.fairshare import FlowSet, RoutedFlow, max_min_fair_rates
from repro.obs.stats import nearest_rank_quantile
from repro.routing.base import Path
from repro.topology.elements import Network


@dataclass(frozen=True)
class FlowSpec:
    """A flow to simulate: endpoints are switch-level paths via a router.

    ``size`` is in capacity-units x time (a size of 1.0 takes 1.0 time
    units at full link rate).
    """

    flow_id: int
    src_server: int
    dst_server: int
    size: float
    arrival: float = 0.0

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ReproError(f"flow {self.flow_id} has non-positive size")
        if self.arrival < 0:
            raise ReproError(f"flow {self.flow_id} arrives before t=0")


@dataclass
class CompletedFlow:
    """Simulation outcome for one flow."""

    spec: FlowSpec
    start: float
    finish: float
    path_hops: int
    path: Optional[Path] = None

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class FailedFlow:
    """A flow the simulation could not finish after a topology event.

    Its path crossed a link that died mid-run and the router found no
    surviving replacement — the flowsim analogue of a connection reset.
    """

    spec: FlowSpec
    start: float
    failed_at: float
    remaining: float
    reason: str = ""


@dataclass
class SimulationResult:
    """All completions plus derived statistics."""

    completed: List[CompletedFlow] = field(default_factory=list)
    failed: List[FailedFlow] = field(default_factory=list)
    rerouted: int = 0

    @property
    def mean_fct(self) -> float:
        if not self.completed:
            raise ReproError("no completed flows")
        return sum(c.duration for c in self.completed) / len(self.completed)

    @property
    def p99_fct(self) -> float:
        if not self.completed:
            raise ReproError("no completed flows")
        return nearest_rank_quantile(
            (c.duration for c in self.completed), 0.99
        )

    @property
    def makespan(self) -> float:
        if not self.completed:
            raise ReproError("no completed flows")
        return max(c.finish for c in self.completed)


#: A router maps (src_server, dst_server, flow_id) to a concrete path.
Router = Callable[[int, int, int], Path]


@dataclass(frozen=True)
class TopologyEvent:
    """A mid-run topology change the simulator must absorb at ``t``.

    ``net`` replaces the simulator's network (e.g. the degraded
    materialization after a failure, or the post-conversion network);
    ``router`` optionally replaces the routing function — when omitted
    the existing router keeps serving, which is only safe if it routes
    over the new network (e.g. a controller whose ``network`` property
    already reflects the change).
    """

    t: float
    net: Network
    router: Optional[Router] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ReproError(f"topology event before t=0 ({self.t})")


def _path_alive(path: Path, net: Network) -> bool:
    return all(net.capacity(u, v) > 0 for u, v in path.edges())


class FlowSimulator:
    """Discrete-event fluid simulation over a fixed topology.

    The active flows are kept from event to event as one
    :class:`~repro.flowsim.fairshare.FlowSet` over the network's link
    index: an arrival appends to it, a completion trims it, and a
    :class:`TopologyEvent` rebuilds it over the new fabric with rerouted
    flows in their admission position.  Each recompute hands the set to
    the module's ``max_min_fair_rates`` (a global, so tests and the
    benchmark's tracing can rebind it).  Remaining sizes and rates are
    arrays aligned with the set, updated with the same float operations,
    in the same order, as per-flow bookkeeping would do them.

    ``monitor`` (a :class:`repro.monitor.NetworkMonitor`) receives the
    per-link allocation of every rate recomputation, stamped with
    simulated time — the flowsim side of the network monitoring plane.
    ``None`` (the default) keeps the event loop monitoring-free.
    """

    def __init__(self, net: Network, router: Router,
                 monitor=None) -> None:
        self.net = net
        self.router = router
        self.monitor = monitor

    def run(
        self,
        flows: List[FlowSpec],
        max_events: Optional[int] = None,
        events: Sequence[TopologyEvent] = (),
    ) -> SimulationResult:
        """Simulate until every flow completes or fails.

        Rates are recomputed at each arrival/completion.  Flows between
        servers on one switch complete at infinite rate (the fabric is
        not involved), consistent with the relaxed-server-bandwidth
        model; their FCT is 0.

        ``events`` injects mid-run :class:`TopologyEvent` changes: at
        each event the network (and optionally the router) is swapped,
        and every active flow whose path crosses a now-dead link is
        re-routed over the surviving topology — or, when the router
        finds no path, recorded in :attr:`SimulationResult.failed`.
        """
        if not flows:
            raise ReproError("nothing to simulate")
        ids = [f.flow_id for f in flows]
        if len(set(ids)) != len(ids):
            raise ReproError("flow ids must be unique")

        pending = deque(sorted(flows, key=lambda f: (f.arrival, f.flow_id)))
        topo = deque(sorted(events, key=lambda e: e.t))
        result = SimulationResult()
        budget = max_events if max_events is not None else (
            10 * len(flows) + 10 * len(topo) + 100
        )

        with obs.span("flowsim.run", flows=len(flows), net=self.net.name), \
                obs.timer("flowsim.run_s"):
            self._event_loop(pending, result, budget, topo)
        return result

    def _event_loop(self, pending, result, budget, topo) -> None:
        """Advance the fluid clock event by event.

        ``pending`` and ``topo`` are deques in time order; ``specs``
        and the ``remaining`` sizes are aligned with the ``active`` set.
        """
        now = 0.0
        events = 0
        recomputes = 0
        active = FlowSet(self.net.link_index())
        specs: List[FlowSpec] = []
        remaining = np.empty(0)
        while pending or active:
            events += 1
            if events > budget:
                raise ReproError(
                    f"simulation exceeded {budget} events (livelock?)"
                )
            # Apply due topology changes first: router swaps must
            # precede this instant's admissions and rate recomputation.
            while topo and topo[0].t <= now + 1e-12:
                active, specs, remaining = self._apply_topology(
                    topo.popleft(), now, active, specs, remaining, result)
            # Admit all arrivals at or before `now`.
            admitted: List[RoutedFlow] = []
            while pending and pending[0].arrival <= now + 1e-12:
                spec = pending.popleft()
                path = self.router(spec.src_server, spec.dst_server,
                                   spec.flow_id)
                admitted.append(RoutedFlow(spec.flow_id, path))
                specs.append(spec)
            if not active and not admitted:
                if not pending:
                    break  # a topology event failed the last flows
                now = pending[0].arrival
                if topo and topo[0].t < now:
                    now = topo[0].t
                continue
            index = self.net.link_index()
            if active.index is not index:  # the fabric was edited in place
                active = FlowSet(index, active.flows)
            if admitted:
                active.admit(admitted)
                remaining = np.concatenate(
                    (remaining, [s.size for s in specs[-len(admitted):]]))

            rates = max_min_fair_rates(
                self.net,
                active,
                monitor=self.monitor,
                now=now,
            ).rates
            rate = np.fromiter(map(rates.__getitem__, active.ids),
                               dtype=float, count=len(active))
            recomputes += 1
            # Next event: earliest completion vs next arrival.  The
            # first flow, in admission order, that is starved or
            # unbounded decides.
            stop = ((rate <= 0) | np.isinf(rate)).nonzero()[0]
            if not stop.size:
                next_completion = float((remaining / rate).min())
            elif rate[stop[0]] > 0:
                next_completion = 0.0
            else:
                raise ReproError(
                    f"flow {active.ids[stop[0]]} starved (rate 0)")
            next_arrival = pending[0].arrival - now if pending else math.inf
            next_topo = topo[0].t - now if topo else math.inf
            step = min(next_completion, next_arrival, max(next_topo, 0.0))

            if stop.size:
                unbounded = np.isinf(rate)
                remaining -= np.where(unbounded, 0.0, rate) * step
                remaining[unbounded] = 0.0
            else:
                remaining -= rate * step
            finished = remaining <= 1e-9
            now += step
            done = finished.nonzero()[0]
            if not done.size:
                continue
            for i in done.tolist():
                spec = specs[i]
                path = active.flows[i].path
                result.completed.append(
                    CompletedFlow(
                        spec=spec,
                        start=spec.arrival,
                        finish=now,
                        path_hops=path.hops,
                        path=path,
                    )
                )
                # Per-completion FCT observation: the health plane's
                # windowed-p99 regression rollup feeds off this stream.
                obs.observe("flowsim.fct_s", now - spec.arrival)
            keep = ~finished
            active.trim(keep)
            specs = list(compress(specs, keep.tolist()))
            remaining = remaining[keep]
        obs.incr("flowsim.events", events)
        obs.incr("flowsim.fairshare_recomputes", recomputes)
        obs.incr("flowsim.flows_completed", len(result.completed))
        if result.failed:
            obs.incr("flowsim.flows_failed", len(result.failed))

    def _apply_topology(self, event: TopologyEvent, now, active, specs,
                        remaining, result):
        """Swap in a new network, salvaging active flows.

        Flows whose path lost a link are re-routed through the (new)
        router, in flow-id order; flows the router cannot place are
        dropped into ``result.failed`` with their unfinished byte count.
        Returns the surviving flows' set, rebuilt over the new fabric
        with rerouted flows in their admission position, and their
        ``specs`` and ``remaining`` sizes.
        """
        self.net = event.net
        if event.router is not None:
            self.router = event.router
        if self.monitor is not None:
            self.monitor.rebind(event.net)
        obs.incr("flowsim.topology_events")
        flows = list(active.flows)
        keep = [True] * len(flows)
        for i in sorted(range(len(flows)), key=active.ids.__getitem__):
            if _path_alive(flows[i].path, self.net):
                continue
            spec = specs[i]
            fid = spec.flow_id
            try:
                path = self.router(spec.src_server, spec.dst_server, fid)
                path.validate_on(self.net)
            except (ReproError, KeyError) as exc:
                keep[i] = False
                result.failed.append(FailedFlow(
                    spec=spec,
                    start=spec.arrival,
                    failed_at=now,
                    remaining=float(remaining[i]),
                    reason=str(exc) or "no surviving path",
                ))
                obs.event("flowsim.flow_rerouted", flow_id=fid,
                          outcome="failed", t=now)
                continue
            flows[i] = RoutedFlow(fid, path)
            result.rerouted += 1
            obs.incr("flowsim.flows_rerouted")
            obs.event("flowsim.flow_rerouted", flow_id=fid,
                      outcome="rerouted", t=now)
        survivors = FlowSet(self.net.link_index(), compress(flows, keep))
        return (survivors, list(compress(specs, keep)),
                remaining[np.array(keep, dtype=bool)])
