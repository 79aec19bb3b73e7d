"""Deterministic replay: byte-identical reports, exact alert pairs."""

from __future__ import annotations

import json

import pytest

from repro import health
from repro.health.report import HealthReport


def judged(lines):
    agg = health.new_aggregator()
    agg.replay_lines(lines)
    return agg


class TestHotspotAcceptance:
    def test_sustained_hotspot_fires_exactly_one_pair(self, hotspot_lines):
        agg = judged(hotspot_lines)
        pairs = [(e["event"], e["rule"]) for e in agg.log]
        assert pairs == [("alert_firing", "link_hotspot"),
                         ("alert_resolved", "link_hotspot")]
        firing, resolved = agg.log
        # fires only after the 0.5 s sustained-for gate...
        assert firing["t"] >= 0.5
        assert firing["value"] > 0.9
        # ...and resolves once the EWMA decays through the clear level.
        assert resolved["t"] > 6.0
        assert resolved["fired_for"] > 0
        assert HealthReport(agg).healthy, "resolved => healthy again"

    def test_balanced_fabric_stays_quiet(self, hotspot_lines):
        quiet = [line for line in hotspot_lines
                 if '"s1->s2"' not in line]
        agg = judged(quiet)
        assert agg.log == []
        assert HealthReport(agg).healthy

    def test_report_counts_the_streamed_state(self, hotspot_lines):
        agg = judged(hotspot_lines)
        body = HealthReport(agg).to_dict()
        assert body["trace"]["events"] == 400
        assert body["trace"]["t_end"] == pytest.approx(9.95)
        assert body["downtime"]["dark_seconds"] == 0.0
        assert [r["link"] for r in body["links"]["hottest"]][0] == "s2->s3"


class TestDeterminism:
    def test_replays_are_byte_identical(self, hotspot_lines):
        first = HealthReport(judged(hotspot_lines)).to_json()
        second = HealthReport(judged(hotspot_lines)).to_json()
        assert first == second
        assert json.loads(first)["schema"] == "flattree.health/1"

    def test_no_wall_clock_material_in_the_report(self, hotspot_lines):
        body = HealthReport(judged(hotspot_lines)).to_json()
        assert '"ts"' not in body

    def test_json_is_nan_free(self, hotspot_lines):
        body = HealthReport(judged(hotspot_lines)).to_json()
        assert "NaN" not in body
        json.loads(body)  # strict: would reject non-standard tokens


class TestRenderings:
    def test_text_report_sections(self, hotspot_lines):
        text = HealthReport(judged(hotspot_lines)).render_text()
        assert "status: HEALTHY" in text
        assert "slos:" in text
        assert "conversion_downtime" in text
        assert "hottest links" in text
