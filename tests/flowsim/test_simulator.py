"""Unit tests for the fluid flow-level simulator."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.flowsim.simulator import FlowSimulator, FlowSpec
from repro.routing.base import Path
from repro.topology.elements import Network, PlainSwitch


@pytest.fixture()
def line_net():
    net = Network("line")
    nodes = [PlainSwitch(i) for i in range(3)]
    for node in nodes:
        net.add_switch(node, 8)
    net.add_cable(nodes[0], nodes[1])
    net.add_cable(nodes[1], nodes[2])
    net.add_server(0, nodes[0])
    net.add_server(1, nodes[0])
    net.add_server(2, nodes[2])
    return net


def line_router(net):
    def router(src_server, dst_server, _flow_id):
        a = net.server_switch(src_server)
        b = net.server_switch(dst_server)
        if a == b:
            return Path((a,))
        return Path((PlainSwitch(0), PlainSwitch(1), PlainSwitch(2)))

    return router


class TestSingleFlow:
    def test_fct_is_size_over_rate(self, line_net):
        sim = FlowSimulator(line_net, line_router(line_net))
        result = sim.run([FlowSpec(1, 0, 2, size=3.0)])
        assert result.completed[0].duration == pytest.approx(3.0)
        assert result.makespan == pytest.approx(3.0)

    def test_same_switch_flow_instant(self, line_net):
        sim = FlowSimulator(line_net, line_router(line_net))
        result = sim.run([FlowSpec(1, 0, 1, size=5.0)])
        assert result.completed[0].duration == pytest.approx(0.0)
        assert result.completed[0].path_hops == 0


class TestSharing:
    def test_two_flows_serialize_then_speed_up(self, line_net):
        """Two unit flows sharing a link: first phase at rate 1/2 until
        both have 0.5 left... they tie, so both finish at t = 2."""
        sim = FlowSimulator(line_net, line_router(line_net))
        result = sim.run([
            FlowSpec(1, 0, 2, size=1.0),
            FlowSpec(2, 0, 2, size=1.0),
        ])
        finishes = sorted(c.finish for c in result.completed)
        assert finishes == pytest.approx([2.0, 2.0])

    def test_short_flow_finishes_then_long_accelerates(self, line_net):
        """Sizes 1 and 3: share 0.5 until t=2 (short done), then the
        long flow runs alone: 2 remaining at rate 1 -> t=4."""
        sim = FlowSimulator(line_net, line_router(line_net))
        result = sim.run([
            FlowSpec(1, 0, 2, size=1.0),
            FlowSpec(2, 0, 2, size=3.0),
        ])
        by_id = {c.spec.flow_id: c for c in result.completed}
        assert by_id[1].finish == pytest.approx(2.0)
        assert by_id[2].finish == pytest.approx(4.0)


class TestArrivals:
    def test_late_arrival_shares_from_then_on(self, line_net):
        """Flow B arrives at t=1 while A (size 2) is half done; they
        share: A's remaining 1 at rate 0.5 -> A ends at t=3; B sent 1 of
        its 2 by then and runs alone -> t=4."""
        sim = FlowSimulator(line_net, line_router(line_net))
        result = sim.run([
            FlowSpec(1, 0, 2, size=2.0, arrival=0.0),
            FlowSpec(2, 0, 2, size=2.0, arrival=1.0),
        ])
        by_id = {c.spec.flow_id: c for c in result.completed}
        assert by_id[1].finish == pytest.approx(3.0)
        assert by_id[2].finish == pytest.approx(4.0)

    def test_idle_gap_jumps_to_next_arrival(self, line_net):
        sim = FlowSimulator(line_net, line_router(line_net))
        result = sim.run([
            FlowSpec(1, 0, 2, size=1.0, arrival=0.0),
            FlowSpec(2, 0, 2, size=1.0, arrival=10.0),
        ])
        by_id = {c.spec.flow_id: c for c in result.completed}
        assert by_id[1].finish == pytest.approx(1.0)
        assert by_id[2].finish == pytest.approx(11.0)
        assert by_id[2].duration == pytest.approx(1.0)


class TestStatistics:
    def test_mean_and_p99(self, line_net):
        sim = FlowSimulator(line_net, line_router(line_net))
        result = sim.run([
            FlowSpec(1, 0, 2, size=1.0),
            FlowSpec(2, 0, 2, size=1.0),
        ])
        assert result.mean_fct == pytest.approx(2.0)
        assert result.p99_fct == pytest.approx(2.0)

    def test_empty_statistics_raise(self):
        from repro.flowsim.simulator import SimulationResult

        empty = SimulationResult()
        with pytest.raises(ReproError):
            _ = empty.mean_fct
        with pytest.raises(ReproError):
            _ = empty.p99_fct


class TestMonitorIntegration:
    def test_completed_flows_carry_their_path(self, line_net):
        sim = FlowSimulator(line_net, line_router(line_net))
        result = sim.run([FlowSpec(1, 0, 2, size=1.0)])
        assert result.completed[0].path.hops == 2

    def test_monitor_sees_every_allocation(self, line_net):
        from repro.monitor import NetworkMonitor

        monitor = NetworkMonitor(line_net)
        sim = FlowSimulator(line_net, line_router(line_net),
                            monitor=monitor)
        sim.run([
            FlowSpec(1, 0, 2, size=1.0),
            FlowSpec(2, 0, 2, size=3.0),
        ])
        # Allocations recompute at t=0 (both arrive) and t=2 (flow 1
        # completes); the final recompute with no flows publishes too.
        assert monitor.samples_taken >= 2
        series = monitor.link_series(
            PlainSwitch(0), PlainSwitch(1)
        )
        # Two flows share the unit link fully, then one runs alone.
        assert series.peak == pytest.approx(1.0)
        assert series.samples[0].active_flows == 2

    def test_monitor_rates_match_allocator(self, line_net):
        """Sum of monitored link rates == sum(rate * hops) per sample."""
        from repro.flowsim.fairshare import (
            RoutedFlow,
            link_allocation,
            max_min_fair_rates,
        )
        from repro.monitor import NetworkMonitor

        monitor = NetworkMonitor(line_net)
        sim = FlowSimulator(line_net, line_router(line_net),
                            monitor=monitor)
        sim.run([
            FlowSpec(1, 0, 2, size=1.0),
            FlowSpec(2, 0, 2, size=2.0, arrival=0.5),
        ])
        # Replay the first allocation independently through fairshare.
        flows = [RoutedFlow(1, Path((PlainSwitch(0), PlainSwitch(1),
                                     PlainSwitch(2))))]
        rates = max_min_fair_rates(line_net, flows).rates
        link_rates, _ = link_allocation(flows, rates)
        first = {
            key: series.samples[0].rate
            for key in link_rates
            if (series := monitor.link_series(*key)) is not None
        }
        assert first == {k: pytest.approx(v)
                         for k, v in link_rates.items()}


class TestValidation:
    def test_bad_size_rejected(self):
        with pytest.raises(ReproError):
            FlowSpec(1, 0, 2, size=0.0)

    def test_negative_arrival_rejected(self):
        with pytest.raises(ReproError):
            FlowSpec(1, 0, 2, size=1.0, arrival=-1.0)

    def test_duplicate_ids_rejected(self, line_net):
        sim = FlowSimulator(line_net, line_router(line_net))
        with pytest.raises(ReproError):
            sim.run([
                FlowSpec(1, 0, 2, size=1.0),
                FlowSpec(1, 0, 2, size=1.0),
            ])

    def test_empty_rejected(self, line_net):
        sim = FlowSimulator(line_net, line_router(line_net))
        with pytest.raises(ReproError):
            sim.run([])


@pytest.fixture()
def diamond_net():
    """sw0 -> {sw1, sw2} -> sw3; servers 0 @ sw0, 1 @ sw3."""
    net = Network("diamond")
    nodes = [PlainSwitch(i) for i in range(4)]
    for node in nodes:
        net.add_switch(node, 8)
    net.add_cable(nodes[0], nodes[1])
    net.add_cable(nodes[1], nodes[3])
    net.add_cable(nodes[0], nodes[2])
    net.add_cable(nodes[2], nodes[3])
    net.add_server(0, nodes[0])
    net.add_server(1, nodes[3])
    return net


def _via(middle):
    def router(_src, _dst, _fid):
        return Path((PlainSwitch(0), PlainSwitch(middle), PlainSwitch(3)))

    return router


class TestTopologyEvents:
    def test_flow_rerouted_over_surviving_path(self, diamond_net):
        from repro.flowsim.simulator import TopologyEvent

        degraded = diamond_net.copy()
        degraded.remove_cable(PlainSwitch(1), PlainSwitch(3))
        sim = FlowSimulator(diamond_net, _via(1))
        result = sim.run(
            [FlowSpec(1, 0, 1, size=2.0)],
            events=[TopologyEvent(t=1.0, net=degraded, router=_via(2))],
        )
        assert result.rerouted == 1
        assert result.failed == []
        # Half done at t=1, other half at unit rate on the new path.
        assert result.completed[0].duration == pytest.approx(2.0)
        assert result.completed[0].path.edges()[0] == (
            PlainSwitch(0), PlainSwitch(2)
        )

    def test_flow_failed_when_no_surviving_path(self, diamond_net):
        from repro.flowsim.simulator import TopologyEvent

        stranded = diamond_net.copy()
        stranded.remove_cable(PlainSwitch(1), PlainSwitch(3))
        stranded.remove_cable(PlainSwitch(2), PlainSwitch(3))

        def dead_router(_src, _dst, fid):
            raise ReproError(f"no route for flow {fid}")

        sim = FlowSimulator(diamond_net, _via(1))
        result = sim.run(
            [FlowSpec(1, 0, 1, size=2.0)],
            events=[TopologyEvent(t=0.5, net=stranded,
                                  router=dead_router)],
        )
        assert result.completed == []
        assert len(result.failed) == 1
        failed = result.failed[0]
        assert failed.failed_at == pytest.approx(0.5)
        assert failed.remaining == pytest.approx(1.5)
        assert "no route" in failed.reason

    def test_unaffected_flows_keep_their_path(self, diamond_net):
        from repro.flowsim.simulator import TopologyEvent

        degraded = diamond_net.copy()
        degraded.remove_cable(PlainSwitch(2), PlainSwitch(3))
        sim = FlowSimulator(diamond_net, _via(1))
        result = sim.run(
            [FlowSpec(1, 0, 1, size=2.0)],
            events=[TopologyEvent(t=1.0, net=degraded)],
        )
        assert result.rerouted == 0
        assert result.completed[0].duration == pytest.approx(2.0)

    def test_arrivals_after_event_use_new_router(self, diamond_net):
        from repro.flowsim.simulator import TopologyEvent

        degraded = diamond_net.copy()
        degraded.remove_cable(PlainSwitch(1), PlainSwitch(3))
        sim = FlowSimulator(diamond_net, _via(1))
        result = sim.run(
            [
                FlowSpec(1, 0, 1, size=0.5),
                FlowSpec(2, 0, 1, size=1.0, arrival=2.0),
            ],
            events=[TopologyEvent(t=1.0, net=degraded, router=_via(2))],
        )
        late = [c for c in result.completed if c.spec.flow_id == 2][0]
        assert late.path.edges()[0] == (PlainSwitch(0), PlainSwitch(2))

    def test_reroute_events_validate(self, diamond_net):
        from repro import obs
        from repro.flowsim.simulator import TopologyEvent
        from repro.obs.contract import check_event
        from repro.obs.sinks import MemorySink

        degraded = diamond_net.copy()
        degraded.remove_cable(PlainSwitch(1), PlainSwitch(3))
        sim = FlowSimulator(diamond_net, _via(1))
        sink = MemorySink()
        obs.enable(sink)
        try:
            sim.run(
                [FlowSpec(1, 0, 1, size=2.0)],
                events=[TopologyEvent(t=1.0, net=degraded,
                                      router=_via(2))],
            )
        finally:
            obs.disable()
        rerouted = [e for e in sink.events
                    if e.get("name") == "flowsim.flow_rerouted"]
        assert len(rerouted) == 1
        assert rerouted[0]["outcome"] == "rerouted"
        assert check_event(rerouted[0]) == []

    def test_negative_event_time_rejected(self, diamond_net):
        from repro.flowsim.simulator import TopologyEvent

        with pytest.raises(ReproError):
            TopologyEvent(t=-1.0, net=diamond_net)
