"""CLI surface: flattree health, end to end."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


@pytest.fixture()
def trace_path(tmp_path, hotspot_lines):
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(hotspot_lines) + "\n", encoding="utf-8")
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestHealthCommand:
    def test_healthy_trace_exits_zero(self, capsys, trace_path):
        code, out = run_cli(capsys, "health", str(trace_path))
        assert code == 0
        assert "status: HEALTHY" in out

    def test_json_output_is_deterministic(self, capsys, trace_path):
        code, out1 = run_cli(capsys, "health", str(trace_path), "--json")
        assert code == 0
        _, out2 = run_cli(capsys, "health", str(trace_path), "--json")
        assert out1 == out2
        assert json.loads(out1)["healthy"] is True

    def test_expect_matching_fired_alerts(self, capsys, trace_path):
        # link_hotspot fired (and resolved): expecting it exactly = 0
        code, _ = run_cli(capsys, "health", str(trace_path),
                          "--expect", "link_hotspot")
        assert code == 0

    def test_expect_mismatch_exits_one(self, capsys, trace_path):
        code, _ = run_cli(capsys, "health", str(trace_path),
                          "--expect", "")
        assert code == 1

    def test_missing_trace_exits_two(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "health", str(tmp_path / "nope.jsonl"))
        assert code == 2

    def test_corrupt_trace_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{nope\n", encoding="utf-8")
        code, _ = run_cli(capsys, "health", str(bad))
        assert code == 2

    def test_out_artifact(self, capsys, trace_path, tmp_path):
        report = tmp_path / "HEALTH_REPORT.json"
        code, _ = run_cli(capsys, "health", str(trace_path),
                          "--out", str(report))
        assert code == 0
        body = json.loads(report.read_text(encoding="utf-8"))
        assert body["schema"] == "flattree.health/1"


class TestRecordedRunRoundTrip:
    """Record real telemetry through the CLI, then judge the recording."""

    def test_monitored_run_replays_deterministically(
            self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        code, _ = run_cli(capsys, f"--telemetry={trace}", "monitor",
                          "--k", "4", "--pattern", "hotspot",
                          "--flows", "12")
        assert code == 0 and trace.is_file()
        code1, out1 = run_cli(capsys, "health", str(trace), "--json")
        code2, out2 = run_cli(capsys, "health", str(trace), "--json")
        assert (code1, out1) == (code2, out2)
        assert json.loads(out1)["trace"]["events"] > 0

    def test_info_mentions_the_health_plane(self, capsys):
        code, out = run_cli(capsys, "info")
        assert code == 0
        assert "health:" in out
        assert "alert rules" in out
