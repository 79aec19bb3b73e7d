"""Unit tests for the streaming health aggregator."""

from __future__ import annotations

import json
import math

import pytest

from repro import health, selfheal
from repro.errors import ReproError
from repro.health.aggregate import HealthAggregator

from tests.health.conftest import link_sample


def wire(name, kind, **fields):
    base = {"ts": 0.0, "name": name, "kind": kind}
    base.update(fields)
    return base


class TestLinkRollups:
    def test_link_ewma_peak_and_freshness(self):
        agg = HealthAggregator(alpha=0.5)
        agg.consume(json.loads(link_sample(0.0, "a->b", 0.4)))
        agg.consume(json.loads(link_sample(1.0, "a->b", 0.8)))
        rollup = agg.links["a->b"]
        # first sample seeds exactly, then value += alpha * (v - value)
        assert rollup.ewma.value == pytest.approx(0.6)
        assert rollup.peak == 0.8
        assert rollup.last_t == 1.0
        assert agg.t == 1.0

    def test_stale_links_drop_out_of_hotspot_probe(self):
        agg = HealthAggregator(stale_after=1.0)
        agg.consume(json.loads(link_sample(0.0, "hot->x", 0.95)))
        agg.consume(json.loads(link_sample(5.0, "cool->y", 0.2)))
        fresh = [r.link for r in agg.fresh_links()]
        assert fresh == ["cool->y"]
        assert agg.hottest_utilization() == pytest.approx(0.2)
        # ... but stale links still count toward fabric-wide imbalance.
        assert agg.link_gini() > 0.0

    def test_hottest_links_orders_by_ewma_then_name(self):
        agg = HealthAggregator()
        for link, value in (("b->c", 0.5), ("a->b", 0.5), ("c->d", 0.9)):
            agg.consume(json.loads(link_sample(0.0, link, value)))
        assert [r.link for r in agg.hottest_links(3)] == \
            ["c->d", "a->b", "b->c"]


class TestDowntimeLedger:
    def test_down_up_accumulates_dark_seconds(self):
        agg = HealthAggregator()
        agg.consume(wire("monitor.link_down", "link_down", link="a-b",
                         value=1, t=1.0))
        assert agg.open_dark_links() == ["a-b"]
        agg.consume(wire("monitor.link_up", "link_up", link="a-b",
                         value=1, dark_s=0.5, t=1.5))
        assert agg.dark_seconds == pytest.approx(0.5)
        assert agg.blink_windows == 1
        assert agg.open_dark_links() == []

    def test_unmatched_up_is_ignored(self):
        agg = HealthAggregator()
        agg.consume(wire("monitor.link_up", "link_up", link="a-b",
                         value=1, t=1.0))
        assert agg.dark_seconds == 0.0
        assert agg.blink_windows == 0


class TestMetricAndEventRollups:
    def test_metric_stats(self):
        agg = HealthAggregator(window=8)
        for v in (1.0, 2.0, 3.0, 4.0):
            agg.consume(wire("m", "gauge", value=v))
        assert agg.metric_stat("m", "last") == 4.0
        assert agg.metric_stat("m", "p50") == 2.0
        assert agg.metric_stat("m", "mean") == pytest.approx(2.5)
        assert agg.metric_stat("m", "total") == pytest.approx(10.0)
        assert agg.metric_stat("m", "rate_of_change") == pytest.approx(1.0)
        assert math.isnan(agg.metric_stat("absent", "p99"))
        with pytest.raises(ReproError):
            agg.metric_stat("m", "p75")

    def test_timer_events_roll_up_duration(self):
        agg = HealthAggregator()
        agg.consume(wire("solve_s", "timer", duration_s=0.25))
        assert agg.metric_stat("solve_s", "last") == 0.25

    def test_event_count_and_windowed_rate(self):
        agg = HealthAggregator()
        for t in (0.0, 1.0, 2.0):
            agg.consume(wire("flowsim.flow_rerouted", "event", value=1,
                             flow_id=1, outcome="rerouted", t=t))
        assert agg.event_count("flowsim.flow_rerouted") == 3
        assert agg.event_rate("flowsim.flow_rerouted") == pytest.approx(1.0)

    def test_health_events_never_aggregated(self):
        agg = HealthAggregator()
        agg.consume(wire("health.alert_firing", "event", value=1,
                         rule="r", metric="m", threshold=1.0, t=1.0))
        assert agg.events == 0
        assert agg.event_counts == {}

    def test_baseline_freezes_at_sample_threshold(self):
        agg = HealthAggregator()
        for i in range(health.BASELINE_SAMPLES):
            agg.consume(wire("fct", "histogram", value=1.0 + 0.001 * i))
        frozen = agg.metrics["fct"].baseline
        assert not math.isnan(frozen)
        for _ in range(10):
            agg.consume(wire("fct", "histogram", value=50.0))
        assert agg.metrics["fct"].baseline == frozen


class TestReplayValidation:
    def test_bad_json_line_raises(self):
        with pytest.raises(ReproError, match="bad telemetry line"):
            HealthAggregator().replay_lines(["{nope"])

    def test_bad_json_names_its_physical_line(self):
        lines = ["{}", "", "{nope"]
        with pytest.raises(ReproError) as health_error:
            HealthAggregator().replay_lines(lines)
        assert str(health_error.value).startswith("bad telemetry line 3: ")
        with pytest.raises(ReproError) as selfheal_error:
            selfheal.replay(lines)
        assert str(selfheal_error.value) == str(health_error.value)

    def test_blank_lines_and_non_objects_skipped(self):
        agg = HealthAggregator()
        agg.replay_lines(["", "   ", "[1, 2]"])
        assert agg.events == 0

    def test_constructor_validation(self):
        with pytest.raises(ReproError):
            HealthAggregator(window=0)
        with pytest.raises(ReproError):
            HealthAggregator(eval_every=0)
        with pytest.raises(ReproError):
            HealthAggregator(stale_after=0.0)
