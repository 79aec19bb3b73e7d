"""The dict event loop, a reference for tests.

The straightforward form of the fluid simulation ``FlowSimulator``
runs on arrays: the active flows live in dicts keyed by flow id, and
every recompute hands the allocator a fresh list of every active flow,
which regathers the whole (flow, link) incidence.  Telemetry is left
out; the event order, float operations and outcomes are the loop's.
``test_simulator_oracle.py`` holds the simulator to its results.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, List

from repro.errors import ReproError
from repro.flowsim.fairshare import RoutedFlow, max_min_fair_rates
from repro.flowsim.simulator import (
    CompletedFlow,
    FailedFlow,
    FlowSimulator,
    FlowSpec,
    SimulationResult,
    TopologyEvent,
    _path_alive,
)


class DictFlowSimulator(FlowSimulator):
    """:class:`FlowSimulator` over per-flow dicts and plain-list calls."""

    def run(self, flows, max_events=None, events=()) -> SimulationResult:
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
        self._dict_loop(pending, result, budget, topo)
        return result

    def _dict_loop(self, pending, result, budget, topo) -> None:
        active: Dict[int, FlowSpec] = {}
        remaining: Dict[int, float] = {}
        routed: Dict[int, RoutedFlow] = {}
        now = 0.0
        events = 0
        while pending or active:
            events += 1
            if events > budget:
                raise ReproError(
                    f"simulation exceeded {budget} events (livelock?)"
                )
            while topo and topo[0].t <= now + 1e-12:
                self._dict_topology(topo.popleft(), now, active, remaining,
                                    routed, result)
            while pending and pending[0].arrival <= now + 1e-12:
                spec = pending.popleft()
                path = self.router(spec.src_server, spec.dst_server,
                                   spec.flow_id)
                active[spec.flow_id] = spec
                remaining[spec.flow_id] = spec.size
                routed[spec.flow_id] = RoutedFlow(spec.flow_id, path)
            if not active:
                if not pending:
                    break
                now = pending[0].arrival
                if topo and topo[0].t < now:
                    now = topo[0].t
                continue

            rates = max_min_fair_rates(
                self.net,
                list(routed.values()),
                monitor=self.monitor,
                now=now,
            ).rates
            next_completion = math.inf
            for fid in active:
                rate = rates[fid]
                if rate <= 0:
                    raise ReproError(f"flow {fid} starved (rate 0)")
                if math.isinf(rate):
                    next_completion = 0.0
                    break
                next_completion = min(next_completion,
                                      remaining[fid] / rate)
            next_arrival = pending[0].arrival - now if pending else math.inf
            next_topo = topo[0].t - now if topo else math.inf
            step = min(next_completion, next_arrival, max(next_topo, 0.0))

            finished: List[int] = []
            for fid in list(active):
                rate = rates[fid]
                if math.isinf(rate):
                    remaining[fid] = 0.0
                else:
                    remaining[fid] -= rate * step
                if remaining[fid] <= 1e-9:
                    finished.append(fid)
            now += step
            for fid in finished:
                spec = active.pop(fid)
                path = routed.pop(fid).path
                result.completed.append(
                    CompletedFlow(
                        spec=spec,
                        start=spec.arrival,
                        finish=now,
                        path_hops=path.hops,
                        path=path,
                    )
                )
                del remaining[fid]

    def _dict_topology(self, event: TopologyEvent, now, active, remaining,
                       routed, result) -> None:
        self.net = event.net
        if event.router is not None:
            self.router = event.router
        if self.monitor is not None:
            self.monitor.rebind(event.net)
        for fid in sorted(active):
            if _path_alive(routed[fid].path, self.net):
                continue
            spec = active[fid]
            try:
                path = self.router(spec.src_server, spec.dst_server, fid)
                path.validate_on(self.net)
            except (ReproError, KeyError) as exc:
                active.pop(fid)
                result.failed.append(FailedFlow(
                    spec=spec,
                    start=spec.arrival,
                    failed_at=now,
                    remaining=remaining.pop(fid),
                    reason=str(exc) or "no surviving path",
                ))
                del routed[fid]
                continue
            routed[fid] = RoutedFlow(fid, path)
            result.rerouted += 1
