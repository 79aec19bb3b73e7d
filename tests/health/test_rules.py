"""Alert rule lifecycle: hysteresis, sustained-for, probes, defaults."""

from __future__ import annotations

import math

import pytest

from repro import health
from repro.errors import ReproError
from repro.health.aggregate import HealthAggregator
from repro.health.rules import AlertRule, RulesEngine, probe_value
from repro.obs import contract


def gauge(name, value, t):
    return {"ts": 0.0, "name": name, "kind": "gauge", "value": value,
            "t": t}


def engine_with(rule):
    return RulesEngine((rule,))


def feed(agg, value, t):
    agg.consume(gauge("m", value, t))


class TestLifecycle:
    def rule(self, **over):
        base = dict(name="hot", probe="rollup:m:last", threshold=0.9,
                    clear_threshold=0.75)
        base.update(over)
        return AlertRule(**base)

    def test_firing_then_resolved_with_hysteresis(self):
        engine = engine_with(self.rule())
        agg = HealthAggregator(rules=engine)
        feed(agg, 0.95, t=1.0)
        engine.evaluate(agg)
        assert [s.rule.name for s in engine.active()] == ["hot"]
        # inside the hysteresis band: below threshold, above clear
        feed(agg, 0.80, t=2.0)
        engine.evaluate(agg)
        assert engine.active(), "0.80 > clear 0.75 must keep it firing"
        feed(agg, 0.70, t=3.0)
        engine.evaluate(agg)
        assert engine.active() == []
        events = [entry["event"] for entry in agg.log]
        assert events == ["alert_firing", "alert_resolved"]
        resolved = agg.log[1]
        assert resolved["fired_for"] == pytest.approx(2.0)

    def test_sustained_for_duration_gates_firing(self):
        engine = engine_with(self.rule(for_duration=1.0))
        agg = HealthAggregator(rules=engine)
        feed(agg, 0.95, t=1.0)
        engine.evaluate(agg)
        assert engine.active() == [], "breach must be sustained first"
        feed(agg, 0.95, t=1.5)
        engine.evaluate(agg)
        assert engine.active() == []
        feed(agg, 0.95, t=2.1)
        engine.evaluate(agg)
        assert [s.rule.name for s in engine.active()] == ["hot"]
        assert agg.log[0]["t"] == 2.1

    def test_recovery_during_pending_resets_the_clock(self):
        engine = engine_with(self.rule(for_duration=1.0))
        agg = HealthAggregator(rules=engine)
        feed(agg, 0.95, t=1.0)
        engine.evaluate(agg)
        feed(agg, 0.10, t=1.5)     # recovered before sustained-for
        engine.evaluate(agg)
        feed(agg, 0.95, t=2.5)     # breach again: clock restarts
        engine.evaluate(agg)
        assert engine.active() == []
        assert agg.log == []

    def test_nan_probe_never_breaches(self):
        engine = engine_with(self.rule(probe="rollup:absent:last"))
        agg = HealthAggregator(rules=engine)
        feed(agg, 0.95, t=1.0)
        engine.evaluate(agg)
        assert engine.active() == []

    def test_less_than_comparison(self):
        rule = AlertRule(name="starved", probe="rollup:m:last",
                         threshold=0.1, clear_threshold=0.2,
                         comparison="<")
        engine = engine_with(rule)
        agg = HealthAggregator(rules=engine)
        feed(agg, 0.05, t=1.0)
        engine.evaluate(agg)
        assert engine.active()
        feed(agg, 0.15, t=2.0)     # above threshold but below clear
        engine.evaluate(agg)
        assert engine.active()
        feed(agg, 0.25, t=3.0)
        engine.evaluate(agg)
        assert engine.active() == []


class TestEmittedEvents:
    def test_firing_and_resolved_pass_the_wire_contract(self, memory_sink):
        engine = engine_with(AlertRule(
            name="hot", probe="rollup:m:last", threshold=0.9,
            clear_threshold=0.75))
        agg = HealthAggregator(rules=engine)
        feed(agg, 0.95, t=1.0)
        engine.evaluate(agg)
        feed(agg, 0.10, t=2.0)
        engine.evaluate(agg)
        health_events = [e for e in memory_sink.events
                         if str(e["name"]).startswith("health.")
                         and e["kind"] == "event"]
        assert [e["name"] for e in health_events] == \
            ["health.alert_firing", "health.alert_resolved"]
        for event in health_events:
            assert contract.check_event(event) == [], event


class TestValidation:
    def test_bad_comparison(self):
        with pytest.raises(ReproError):
            AlertRule(name="r", probe="link.gini", threshold=1,
                      comparison="!=")

    def test_negative_for_duration(self):
        with pytest.raises(ReproError):
            AlertRule(name="r", probe="link.gini", threshold=1,
                      for_duration=-1)

    def test_clear_threshold_must_be_inside_the_band(self):
        with pytest.raises(ReproError):
            AlertRule(name="r", probe="link.gini", threshold=0.9,
                      clear_threshold=0.95)
        with pytest.raises(ReproError):
            AlertRule(name="r", probe="link.gini", threshold=0.1,
                      clear_threshold=0.05, comparison="<")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_thresholds_must_be_finite(self, bad):
        with pytest.raises(ReproError, match="finite"):
            AlertRule(name="r", probe="link.gini", threshold=bad)
        with pytest.raises(ReproError, match="finite"):
            AlertRule(name="r", probe="link.gini", threshold=1,
                      clear_threshold=bad)

    def test_duplicate_rule_names_rejected(self):
        rule = AlertRule(name="r", probe="link.gini", threshold=1)
        with pytest.raises(ReproError):
            RulesEngine((rule, rule))


class TestProbes:
    def test_named_probes(self):
        agg = HealthAggregator()
        assert probe_value(agg, "link.hottest_ewma") == 0.0
        assert probe_value(agg, "link.gini") == 0.0
        assert probe_value(agg, "conversion.dark_s") == 0.0
        assert probe_value(agg, "event_count:x") == 0.0
        assert probe_value(agg, "event_rate:x") == 0.0
        assert math.isnan(probe_value(agg, "ratio:x"))

    def test_unknown_probe_and_malformed_rollup(self):
        agg = HealthAggregator()
        with pytest.raises(ReproError, match="unknown probe"):
            probe_value(agg, "nope")
        with pytest.raises(ReproError, match="malformed probe"):
            probe_value(agg, "rollup:only-two")

    def test_ratio_probe_against_frozen_baseline(self):
        agg = HealthAggregator()
        for i in range(health.BASELINE_SAMPLES):
            feed(agg, 1.0, t=float(i))
        baseline = agg.metrics["m"].baseline
        assert baseline == pytest.approx(1.0)
        for i in range(20):
            feed(agg, 3.0, t=100.0 + i)
        assert probe_value(agg, "ratio:m") == pytest.approx(3.0)


class TestDefaultCatalog:
    def test_names_are_unique_and_documented_fields_set(self):
        rules = health.default_rules()
        names = [r.name for r in rules]
        assert len(set(names)) == len(names)
        assert {"link_hotspot", "link_imbalance", "conversion_downtime",
                "retry_storm", "fct_regression"} == set(names)
        for rule in rules:
            assert rule.description
            assert rule.severity in ("warning", "critical")
            # every default probe resolves against an empty aggregator
            probe_value(HealthAggregator(), rule.probe)

    def test_default_engine_quiet_on_empty_stream(self):
        agg = health.new_aggregator()
        agg.finish()
        assert agg.log == []
