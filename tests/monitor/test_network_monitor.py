"""Unit tests for the network monitoring plane."""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.monitor import (
    LinkSample,
    NetworkMonitor,
    link_label,
    switch_label,
)
from repro.routing.base import Path
from repro.topology.elements import (
    AggSwitch,
    CoreSwitch,
    EdgeSwitch,
    Network,
    PlainSwitch,
)

S0, S1, S2 = PlainSwitch(0), PlainSwitch(1), PlainSwitch(2)


class TestLabels:
    def test_switch_labels(self):
        assert switch_label(CoreSwitch(3)) == "core3"
        assert switch_label(AggSwitch(0, 1)) == "agg0.1"
        assert switch_label(EdgeSwitch(2, 0)) == "edge2.0"
        assert switch_label(PlainSwitch(5)) == "sw5"

    def test_link_label_is_directed(self):
        assert link_label(S0, S1) == "sw0->sw1"
        assert link_label(S1, S0) == "sw1->sw0"


class TestValidation:
    def test_bad_interval_rejected(self, line_net):
        with pytest.raises(ReproError):
            NetworkMonitor(line_net, interval=-0.1)

    def test_bad_retention_rejected(self, line_net):
        with pytest.raises(ReproError):
            NetworkMonitor(line_net, retention=0)

    def test_unknown_link_rejected(self, line_net):
        monitor = NetworkMonitor(line_net)
        with pytest.raises(ReproError):
            monitor.on_allocation(0.0, {(S0, S2): 0.5})


class TestSampling:
    def test_every_event_by_default(self, line_net):
        monitor = NetworkMonitor(line_net)
        for t in (0.0, 0.001, 0.002):
            monitor.on_allocation(t, {(S0, S1): 0.5})
        assert monitor.events_seen == 3
        assert monitor.samples_taken == 3
        series = monitor.link_series(S0, S1)
        assert series.count == 3

    def test_interval_throttles_but_counts_events(self, line_net):
        monitor = NetworkMonitor(line_net, interval=1.0)
        for t in (0.0, 0.2, 0.4, 1.1, 1.2):
            monitor.on_allocation(t, {(S0, S1): 0.5})
        assert monitor.events_seen == 5
        # t=0 sampled, 0.2/0.4 throttled, 1.1 sampled, 1.2 throttled.
        assert monitor.samples_taken == 2
        assert [s.t for s in monitor.link_series(S0, S1).samples] == [0.0, 1.1]

    def test_directions_tracked_separately(self, line_net):
        monitor = NetworkMonitor(line_net)
        monitor.on_allocation(0.0, {(S0, S1): 0.25, (S1, S0): 0.75})
        assert monitor.link_series(S0, S1).peak == pytest.approx(0.25)
        assert monitor.link_series(S1, S0).peak == pytest.approx(0.75)

    def test_utilization_normalized_by_capacity(self):
        net = Network("fat-link")
        net.add_switch(S0, 8)
        net.add_switch(S1, 8)
        net.add_cable(S0, S1, capacity=4.0)
        monitor = NetworkMonitor(net)
        monitor.on_allocation(0.0, {(S0, S1): 1.0}, {(S0, S1): 3})
        sample = monitor.link_series(S0, S1).samples[0]
        assert sample == LinkSample(0.0, 1.0, 0.25, 3)


class TestRetention:
    def test_ring_buffer_evicts_but_stats_survive(self, line_net):
        monitor = NetworkMonitor(line_net, retention=4)
        # Peak (0.9) lands early and is evicted from the ring buffer.
        rates = [0.9, 0.1, 0.2, 0.3, 0.4, 0.5]
        for i, rate in enumerate(rates):
            monitor.on_allocation(float(i), {(S0, S1): rate})
        series = monitor.link_series(S0, S1)
        assert len(series.samples) == 4
        assert series.samples[0].t == 2.0
        assert series.count == 6
        assert series.peak == pytest.approx(0.9)
        assert series.mean_utilization == pytest.approx(sum(rates) / 6)
        # Quantiles only see the retained window.
        assert series.utilization_quantile(1.0) == pytest.approx(0.5)


class TestDerivedStats:
    def fill(self, monitor):
        monitor.on_allocation(0.0, {(S0, S1): 1.0, (S1, S2): 0.5})
        monitor.on_allocation(1.0, {(S0, S1): 0.5})

    def test_hotspots_ordering(self, line_net):
        monitor = NetworkMonitor(line_net)
        self.fill(monitor)
        top = monitor.hotspots(2)
        assert [s.key for s in top] == [(S0, S1), (S1, S2)]
        assert monitor.hotspots(1, by="mean")[0].key == (S0, S1)
        with pytest.raises(ReproError):
            monitor.hotspots(by="total")

    def test_peak_and_time_range(self, line_net):
        monitor = NetworkMonitor(line_net)
        self.fill(monitor)
        assert monitor.peak_utilization() == pytest.approx(1.0)
        assert monitor.time_range() == (0.0, 1.0)

    def test_switch_loads_average_over_samples(self, line_net):
        monitor = NetworkMonitor(line_net)
        self.fill(monitor)
        loads = monitor.switch_loads()
        # sw0 carried 1.0 then 0.5 over two samples.
        assert loads[S0] == pytest.approx(0.75)
        assert monitor.switch_peak_loads()[S1] == pytest.approx(1.5)

    def test_gini_counts_idle_links_as_zero(self, line_net):
        monitor = NetworkMonitor(line_net)
        monitor.on_allocation(0.0, {(S0, S1): 1.0})
        # One of four directed links loaded: strong inequality.
        assert monitor.gini() == pytest.approx(0.75)

    def test_imbalance_ratio(self, line_net):
        monitor = NetworkMonitor(line_net)
        monitor.on_allocation(0.0, {(S0, S1): 1.0, (S1, S2): 1.0})
        # Two of four directed links at 1.0: max/mean = 1 / 0.5.
        assert monitor.max_min_imbalance() == pytest.approx(2.0)
        assert NetworkMonitor(line_net).max_min_imbalance() == 0.0


class TestDowntimeLedger:
    def test_windows_and_totals(self, line_net):
        monitor = NetworkMonitor(line_net)
        monitor.link_down(1.0, S0, S1)
        assert monitor.open_dark_links() == [(S0, S1)]
        monitor.link_up(1.5, S0, S1)
        monitor.link_down(3.0, S1, S0)  # direction-agnostic
        monitor.link_up(3.25, S0, S1)
        assert monitor.dark_windows(S0, S1) == [(1.0, 1.5), (3.0, 3.25)]
        assert monitor.downtime()[(S0, S1)] == pytest.approx(0.75)
        assert monitor.total_dark_time() == pytest.approx(0.75)
        assert monitor.open_dark_links() == []

    def test_double_down_rejected(self, line_net):
        monitor = NetworkMonitor(line_net)
        monitor.link_down(0.0, S0, S1)
        with pytest.raises(ReproError):
            monitor.link_down(0.1, S1, S0)

    def test_up_without_down_rejected(self, line_net):
        monitor = NetworkMonitor(line_net)
        with pytest.raises(ReproError):
            monitor.link_up(0.0, S0, S1)

    def test_up_before_down_rejected(self, line_net):
        monitor = NetworkMonitor(line_net)
        monitor.link_down(5.0, S0, S1)
        with pytest.raises(ReproError):
            monitor.link_up(4.0, S0, S1)

    def test_dark_traffic_overlap(self, line_net):
        monitor = NetworkMonitor(line_net)
        monitor.link_down(1.0, S0, S1)
        monitor.link_up(2.0, S0, S1)
        path = Path((S0, S1, S2))
        flows = [
            (path, 0.0, 1.5),          # overlaps [1.0, 1.5] -> 0.5
            (path, 1.25, 1.75),        # inside the window     -> 0.5
            (path, 3.0, 4.0),          # after the window      -> 0
            (Path((S1, S2)), 0.0, 9.0),  # avoids the dark link -> 0
        ]
        assert monitor.dark_traffic(flows) == pytest.approx(1.0)
        assert monitor.dark_traffic([]) == 0.0


class TestRebind:
    def test_series_and_ledger_survive_rebind(self, line_net):
        monitor = NetworkMonitor(line_net)
        monitor.on_allocation(0.0, {(S0, S1): 1.0})
        monitor.link_down(0.5, S1, S2)
        monitor.link_up(1.0, S1, S2)

        after = Network("after")
        for node in (S0, S1, S2):
            after.add_switch(node, 8)
        after.add_cable(S0, S1)
        after.add_cable(S0, S2)  # new link, not in the old fabric
        monitor.rebind(after)

        monitor.on_allocation(2.0, {(S0, S1): 0.5, (S0, S2): 0.25})
        assert monitor.link_series(S0, S1).count == 2
        assert monitor.link_series(S0, S2).count == 1
        assert monitor.total_dark_time() == pytest.approx(0.5)


class TestExport:
    def test_snapshot_is_json_serializable(self, line_net):
        monitor = NetworkMonitor(line_net)
        monitor.on_allocation(0.0, {(S0, S1): 1.0}, {(S0, S1): 2})
        monitor.link_down(0.5, S0, S1)
        monitor.link_up(1.0, S0, S1)
        snap = json.loads(json.dumps(monitor.snapshot()))
        assert snap["links_tracked"] == 1
        assert snap["peak_utilization"] == pytest.approx(1.0)
        assert snap["downtime"]["sw0->sw1"] == pytest.approx(0.5)
        assert "sw0->sw1" in {entry["link"] for entry in snap["links"]}

    def test_describe_mentions_throttle(self, line_net):
        monitor = NetworkMonitor(line_net, interval=0.5, retention=16)
        text = monitor.describe()
        assert "interval 0.5s" in text and "retention 16" in text

    def test_events_exported_when_telemetry_on(self, line_net, memory_sink):
        from repro.obs.contract import check_event

        monitor = NetworkMonitor(line_net)
        monitor.on_allocation(0.25, {(S0, S1): 0.5}, {(S0, S1): 1})
        monitor.link_down(0.5, S0, S1)
        monitor.link_up(0.75, S0, S1)

        by_kind = {}
        for event in memory_sink.events:
            by_kind.setdefault(event["kind"], []).append(event)
        sample = by_kind["link_sample"][0]
        assert sample["link"] == "sw0->sw1"
        assert sample["t"] == pytest.approx(0.25)
        assert sample["utilization"] == pytest.approx(0.5)
        assert sample["capacity"] == pytest.approx(1.0)
        assert sample["active_flows"] == 1
        assert by_kind["link_up"][0]["dark_s"] == pytest.approx(0.25)
        # Every exported event satisfies the wire contract checker.
        for kind in ("link_sample", "link_down", "link_up"):
            for event in by_kind[kind]:
                assert check_event(event) == []

    def test_no_export_when_telemetry_off(self, line_net, clean_obs):
        monitor = NetworkMonitor(line_net)
        monitor.on_allocation(0.0, {(S0, S1): 0.5})
        # Nothing raised, series still recorded.
        assert monitor.samples_taken == 1
