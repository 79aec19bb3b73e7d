"""Unit tests for the shared telemetry wire contract (repro.obs.contract)."""

from __future__ import annotations

import json

import pytest

from repro.obs import contract


def event(name, **attrs):
    base = {"ts": 1.0, "name": name, "kind": "event", "value": 1}
    base.update(attrs)
    return base


def span_event(**over):
    base = {"ts": 1.0, "name": "s", "kind": "span", "duration_s": 0.1,
            "path": "s", "depth": 0, "span_id": 1, "parent_id": None}
    base.update(over)
    return base


#: One conforming line per registered event name and per declared kind.
CONFORMING = {
    "core.profiling.skipped_candidate": event(
        "core.profiling.skipped_candidate", m=2, n=1, reason="infeasible"),
    "core.reconfigure.converter_retry": event(
        "core.reconfigure.converter_retry", converter="c0", attempt=1,
        batch=0, fault="nack", t=0.2),
    "core.reconfigure.batch_rollback": event(
        "core.reconfigure.batch_rollback", batch=1, converters=3,
        reason="retries exhausted", t=0.4),
    "core.failures.heal": event(
        "core.failures.heal", reconfigured=2, unrecoverable=0, t=3.5),
    "flowsim.flow_rerouted": event(
        "flowsim.flow_rerouted", flow_id=7, outcome="failed", t=1.0),
    "experiments.degradation.solver_failure": event(
        "experiments.degradation.solver_failure", topology="flat-tree",
        fraction=0.1, draw=3),
    "core.scaling.candidate_skipped": event(
        "core.scaling.candidate_skipped", candidate="core3",
        reason="no spare port"),
    "perf.diff_session": event(
        "perf.diff_session", base="base.jsonl", new="new.jsonl", grown=1,
        shrunk=0),
    "health.alert_firing": event(
        "health.alert_firing", rule="link_hotspot",
        metric="link.hottest_ewma", value=0.95, threshold=0.9, t=1.5),
    "health.alert_resolved": event(
        "health.alert_resolved", rule="link_hotspot",
        metric="link.hottest_ewma", fired_for=4.8, t=6.3),
    "health.slo_burn": event(
        "health.slo_burn", slo="conversion_downtime", burn_rate=3.5,
        budget_remaining=-0.01, t=2.0),
    "selfheal.action_planned": event(
        "selfheal.action_planned", action="reconvert", rule="link_hotspot",
        alert_t=1.8, t=2.1),
    "selfheal.action_started": event(
        "selfheal.action_started", action="reconvert", rule="link_hotspot",
        t=2.1),
    "selfheal.action_succeeded": event(
        "selfheal.action_succeeded", action="reconvert",
        rule="link_hotspot", latency_s=0.09, t=2.1),
    "selfheal.action_failed": event(
        "selfheal.action_failed", action="heal", rule="link_failure",
        reason="no path", t=3.0),
    "selfheal.action_suppressed": event(
        "selfheal.action_suppressed", action="heal", rule="link_failure",
        reason="cooldown", t=3.0),
    "chaos.recover_noop": event(
        "chaos.recover_noop", component="switch", target="core0", t=1.5),
    "span": span_event(span_id=3, parent_id=1, path="a/s", depth=1),
    "link_sample": {
        "ts": 1.0, "name": "monitor.link_sample", "kind": "link_sample",
        "value": 0.5, "link": "a->b", "t": 0.5, "utilization": 0.5,
        "rate": 5.0, "capacity": 10.0, "active_flows": 2},
    "link_down": {
        "ts": 1.0, "name": "monitor.link_down", "kind": "link_down",
        "value": 1, "link": "a->b", "t": 0.5},
    "link_up": {
        "ts": 1.0, "name": "monitor.link_up", "kind": "link_up",
        "value": 1, "link": "a->b", "t": 0.75, "dark_s": 0.25},
}


class TestDeclaredFields:
    def test_every_name_and_kind_has_a_conforming_line(self):
        assert set(CONFORMING) == (
            set(contract.EVENT_FIELDS) | set(contract.KIND_FIELDS))

    @pytest.mark.parametrize("name", sorted(CONFORMING))
    def test_each_declared_field_is_required(self, name):
        good = CONFORMING[name]
        assert contract.check_event(good) == []
        declared = (contract.EVENT_FIELDS.get(name)
                    or contract.KIND_FIELDS[name])
        for field in declared:
            bad = dict(good)
            del bad[field]
            problems = contract.check_event(bad)
            assert any(repr(field) in p for p in problems), (field, problems)


class TestRegistryConsistency:
    def test_known_names_derived_from_event_fields(self):
        assert contract.KNOWN_EVENT_NAMES == frozenset(contract.EVENT_FIELDS)

    def test_required_fields_are_nonempty_typed_tables(self):
        tables = {**contract.EVENT_FIELDS, **contract.KIND_FIELDS}
        for name, fields in tables.items():
            assert fields, name
            assert all(isinstance(t, contract.FieldType)
                       for t in fields.values()), name

    def test_event_kind_in_kinds(self):
        assert "event" in contract.KINDS
        assert {"link_sample", "link_down", "link_up"} <= contract.KINDS


class TestCheckEvent:
    def test_valid_heal_passes(self):
        assert contract.check_event(
            event("core.failures.heal", reconfigured=2, unrecoverable=0,
                  t=3.5)) == []

    def test_missing_ts_and_value(self):
        problems = contract.check_event({"name": "x", "kind": "counter"})
        assert any("'ts'" in p for p in problems)
        assert any("'value' or 'duration_s'" in p for p in problems)

    def test_bool_is_not_numeric(self):
        problems = contract.check_event(
            {"ts": True, "name": "x", "kind": "counter", "value": True})
        assert problems

    def test_unknown_kind(self):
        problems = contract.check_event(
            {"ts": 1.0, "name": "x", "kind": "blob", "value": 1})
        assert any("unknown 'kind'" in p for p in problems)

    def test_unhashable_kind_rejected(self):
        for kind in ("[1]", "{}"):
            problems = contract.check_line(
                f'{{"ts": 1.0, "name": "x", "kind": {kind}, "value": 1}}')
            assert any("unknown 'kind'" in p for p in problems), kind

    def test_negative_duration(self):
        problems = contract.check_event(
            {"ts": 1.0, "name": "x", "kind": "timer", "duration_s": -0.5})
        assert any("negative 'duration_s'" in p for p in problems)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_link_sample_rejected(self, bad):
        """``json.loads`` reads bare NaN and Infinity; none may pass."""
        numbers = ("ts", "t", "value", "utilization", "rate", "capacity")
        fields = ", ".join(f'"{field}": {bad}' for field in numbers)
        problems = contract.check_line(
            '{"name": "monitor.link_sample", "kind": "link_sample", '
            f'"link": "a->b", "active_flows": 0, {fields}}}')
        for field in numbers:
            assert any(f"'{field}'" in p for p in problems), field

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_ts_value_and_duration_rejected(self, bad):
        assert contract.check_event(
            {"ts": bad, "name": "x", "kind": "counter", "value": 1})
        assert any("non-finite 'value'" in p for p in contract.check_event(
            {"ts": 1.0, "name": "x", "kind": "gauge", "value": bad}))
        assert any("non-finite 'duration_s'" in p
                   for p in contract.check_event(span_event(duration_s=bad)))
        assert contract.check_event(span_event(mem_peak_kb=bad))
        assert contract.check_event(event(
            "health.alert_firing", rule="r", metric="m", value=1.0,
            threshold=bad, t=1.0))

    def test_span_requires_path_and_depth(self):
        problems = contract.check_event(
            {"ts": 1.0, "name": "s", "kind": "span", "duration_s": 0.1})
        assert any("span missing 'path'" in p for p in problems)
        assert any("span missing 'depth'" in p for p in problems)

    def test_bad_converter_retry_fault_value(self):
        problems = contract.check_event(
            event("core.reconfigure.converter_retry", converter="c0",
                  attempt=1, batch=0, fault="explosion", t=1.0))
        assert any("'timeout' or 'nack'" in p for p in problems)

    def test_solver_failure_fraction_range(self):
        problems = contract.check_event(
            event("experiments.degradation.solver_failure", topology="ft",
                  fraction=1.5, draw=0))
        assert any("in [0, 1]" in p for p in problems)

    def test_candidate_skipped_rejects_empty_reason(self):
        problems = contract.check_event(
            event("core.scaling.candidate_skipped", candidate="core3",
                  reason="   "))
        assert any("'reason'" in p for p in problems)

    def test_negative_simulated_time(self):
        problems = contract.check_event(
            event("core.failures.heal", reconfigured=0, unrecoverable=0,
                  t=-1.0))
        assert any("negative" in p for p in problems)

    def test_link_sample_zero_capacity(self):
        problems = contract.check_event({
            "ts": 1.0, "name": "monitor.link", "kind": "link_sample",
            "value": 1, "link": "a-b", "t": 0.5, "utilization": 0.0,
            "rate": 0.0, "capacity": 0, "active_flows": 0,
        })
        assert any("'capacity' must be a positive number" in p
                   for p in problems)


class TestSpanContract:
    def test_span_fields_registry(self):
        assert set(contract.KIND_FIELDS["span"]) == {
            "path", "depth", "span_id", "parent_id"}

    def test_valid_root_span(self):
        assert contract.check_event(span_event()) == []

    def test_valid_child_span(self):
        assert contract.check_event(
            span_event(span_id=3, parent_id=1, path="a/s", depth=1)) == []

    def test_missing_span_id(self):
        bad = span_event()
        del bad["span_id"]
        problems = contract.check_event(bad)
        assert any("'span_id'" in p for p in problems)

    def test_bool_and_zero_span_id_rejected(self):
        assert contract.check_event(span_event(span_id=True))
        problems = contract.check_event(span_event(span_id=0))
        assert any(">= 1" in p for p in problems)

    def test_missing_parent_id_key(self):
        bad = span_event()
        del bad["parent_id"]
        problems = contract.check_event(bad)
        assert any("'parent_id'" in p for p in problems)

    def test_depth_must_be_a_non_negative_integer(self):
        assert contract.check_event(span_event(depth=True))
        assert contract.check_event(span_event(depth=-1))

    def test_parent_id_must_be_null_or_positive_int(self):
        assert contract.check_event(span_event(parent_id="root"))
        assert contract.check_event(span_event(parent_id=0))
        assert contract.check_event(span_event(parent_id=True))

    def test_parent_id_not_below_span_id(self):
        problems = contract.check_event(span_event(span_id=2, parent_id=2))
        assert any("parents are created first" in p for p in problems)

    def test_mem_peak_kb_validation(self):
        assert contract.check_event(span_event(mem_peak_kb=12.5)) == []
        assert contract.check_event(span_event(mem_peak_kb=0)) == []
        assert contract.check_event(span_event(mem_peak_kb=-1.0))
        assert contract.check_event(span_event(mem_peak_kb="big"))

    def test_recorded_spans_round_trip(self):
        # Schema round-trip: what the tracer actually emits must pass
        # the contract verbatim, ids and parentage included.
        from repro import obs
        from repro.obs.sinks import MemorySink

        sink = MemorySink()
        obs.disable()
        obs.enable(sink)
        try:
            with obs.span("outer", k=4):
                with obs.span("inner"):
                    pass
        finally:
            obs.disable()
        spans = [e for e in sink.events if e["kind"] == "span"]
        assert len(spans) == 2
        for span in spans:
            assert contract.check_event(span) == [], span


class TestDiffTrendEvents:
    def test_registered_with_required_fields(self):
        assert set(contract.EVENT_FIELDS["perf.diff_session"]) == {
            "base", "new", "grown", "shrunk"}
        # The BENCH writer and the trajectory judge are gone, and so
        # are their events.
        assert "perf.bench_session" not in contract.KNOWN_EVENT_NAMES
        assert "perf.trend_session" not in contract.KNOWN_EVENT_NAMES

    def test_valid_diff_session(self):
        assert contract.check_event(
            event("perf.diff_session", base="base.jsonl",
                  new="new.jsonl", grown=2, shrunk=0)) == []

    def test_diff_session_blank_labels_rejected(self):
        problems = contract.check_event(
            event("perf.diff_session", base=" ", new="new.jsonl",
                  grown=0, shrunk=0))
        assert any("'base'" in p for p in problems)

    def test_diff_session_negative_counts_rejected(self):
        problems = contract.check_event(
            event("perf.diff_session", base="a", new="b",
                  grown=-1, shrunk=0))
        assert any("'grown'" in p for p in problems)


class TestHealthEvents:
    def test_registered_with_required_fields(self):
        assert set(contract.EVENT_FIELDS["health.alert_firing"]) == {
            "rule", "metric", "value", "threshold", "t"}
        assert set(contract.EVENT_FIELDS["health.alert_resolved"]) == {
            "rule", "metric", "fired_for", "t"}
        assert set(contract.EVENT_FIELDS["health.slo_burn"]) == {
            "slo", "burn_rate", "budget_remaining", "t"}

    def test_valid_alert_pair(self):
        assert contract.check_event(
            event("health.alert_firing", rule="link_hotspot",
                  metric="link.hottest_ewma", value=0.95, threshold=0.9,
                  t=1.5)) == []
        assert contract.check_event(
            event("health.alert_resolved", rule="link_hotspot",
                  metric="link.hottest_ewma", fired_for=4.8, t=6.3)) == []

    def test_alert_firing_requires_numeric_threshold(self):
        problems = contract.check_event(
            event("health.alert_firing", rule="r", metric="m",
                  value=1.0, threshold="high", t=1.0))
        assert any("'threshold'" in p for p in problems)

    def test_alert_firing_requires_numeric_value(self):
        problems = contract.check_event({
            "ts": 1.0, "name": "health.alert_firing", "kind": "event",
            "duration_s": 0.5, "rule": "r", "metric": "m",
            "threshold": 0.9, "t": 1.0})
        assert any("'value'" in p for p in problems)

    def test_negative_fired_for_rejected(self):
        problems = contract.check_event(
            event("health.alert_resolved", rule="r", metric="m",
                  fired_for=-1.0, t=1.0))
        assert any("fired_for" in p for p in problems)

    def test_slo_burn_allows_negative_budget_remaining(self):
        assert contract.check_event(
            event("health.slo_burn", slo="conversion_downtime",
                  burn_rate=3.5, budget_remaining=-0.01, t=2.0)) == []
        problems = contract.check_event(
            event("health.slo_burn", slo="conversion_downtime",
                  burn_rate=-1.0, budget_remaining=0.5, t=2.0))
        assert any("burn_rate" in p for p in problems)


class TestSelfHealEvents:
    def test_registered_with_required_fields(self):
        assert set(contract.EVENT_FIELDS["selfheal.action_planned"]) == {
            "action", "rule", "alert_t", "t"}
        assert set(contract.EVENT_FIELDS["selfheal.action_started"]) == {
            "action", "rule", "t"}
        assert set(contract.EVENT_FIELDS["selfheal.action_succeeded"]) == {
            "action", "rule", "latency_s", "t"}
        assert set(contract.EVENT_FIELDS["selfheal.action_failed"]) == {
            "action", "rule", "reason", "t"}
        assert set(contract.EVENT_FIELDS["selfheal.action_suppressed"]) == {
            "action", "rule", "reason", "t"}

    def test_valid_action_lifecycle(self):
        assert contract.check_event(
            event("selfheal.action_planned", action="reconvert",
                  rule="link_hotspot", alert_t=1.8, t=2.1)) == []
        assert contract.check_event(
            event("selfheal.action_started", action="reconvert",
                  rule="link_hotspot", t=2.1)) == []
        assert contract.check_event(
            event("selfheal.action_succeeded", action="reconvert",
                  rule="link_hotspot", latency_s=0.09, t=2.1)) == []
        assert contract.check_event(
            event("selfheal.action_failed", action="heal",
                  rule="link_failure", reason="no path", t=3.0)) == []
        assert contract.check_event(
            event("selfheal.action_suppressed", action="heal",
                  rule="link_failure", reason="cooldown", t=3.0)) == []

    def test_action_and_rule_must_be_named(self):
        problems = contract.check_event(
            event("selfheal.action_started", action="", rule="r", t=1.0))
        assert any("action" in p for p in problems)

    def test_planned_requires_nonnegative_alert_t(self):
        problems = contract.check_event(
            event("selfheal.action_planned", action="heal", rule="r",
                  alert_t=-1.0, t=1.0))
        assert any("alert_t" in p for p in problems)

    def test_suppressed_requires_reason(self):
        problems = contract.check_event(
            event("selfheal.action_suppressed", action="heal", rule="r",
                  reason="", t=1.0))
        assert any("reason" in p for p in problems)

    def test_negative_latency_rejected(self):
        problems = contract.check_event(
            event("selfheal.action_succeeded", action="heal", rule="r",
                  latency_s=-0.1, t=1.0))
        assert any("latency_s" in p for p in problems)


class TestChaosRecoverNoopEvent:
    def test_registered(self):
        assert set(contract.EVENT_FIELDS["chaos.recover_noop"]) == {
            "component", "target", "t"}

    def test_valid_event(self):
        assert contract.check_event(
            event("chaos.recover_noop", component="leg",
                  target="c3-edge", t=1.5)) == []

    def test_component_vocabulary_enforced(self):
        problems = contract.check_event(
            event("chaos.recover_noop", component="gpu",
                  target="x", t=1.0))
        assert any("component" in p for p in problems)


class TestCheckLineAndStream:
    def test_invalid_json(self):
        problems = contract.check_line("{not json")
        assert len(problems) == 1
        assert "not valid JSON" in problems[0]

    def test_non_object_line(self):
        assert contract.check_line("[1, 2]") == ["not a JSON object"]

    def test_valid_line(self):
        line = json.dumps(
            {"ts": 0.1, "name": "n", "kind": "gauge", "value": 2.0})
        assert contract.check_line(line) == []
