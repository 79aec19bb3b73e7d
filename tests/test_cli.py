"""Unit tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestFigures:
    def test_fig5(self, capsys):
        code, out = run_cli(capsys, "fig5", "--ks", "4", "6")
        assert code == 0
        assert "fig5" in out
        assert "fat-tree" in out and "random graph" in out

    def test_fig6(self, capsys):
        code, out = run_cli(capsys, "fig6", "--ks", "4")
        assert code == 0
        assert "two-stage random graph" in out

    def test_fig7_with_solver(self, capsys):
        code, out = run_cli(
            capsys, "fig7", "--ks", "4", "--solver", "exact"
        )
        assert code == 0
        assert "throughput" in out

    def test_fig8(self, capsys):
        code, out = run_cli(capsys, "fig8", "--ks", "4")
        assert code == 0
        assert "flat-tree locality" in out


class TestHybrid:
    def test_hybrid_runs(self, capsys):
        code, out = run_cli(
            capsys, "hybrid", "--k", "6", "--fractions", "0.5"
        )
        assert code == 0
        assert "global zone" in out
        assert "combined" in out


class TestProfile:
    def test_profile_prints_grid(self, capsys):
        code, out = run_cli(capsys, "profile", "--k", "8")
        assert code == 0
        assert "<-- minimum" in out


class TestConvert:
    @pytest.mark.parametrize(
        "mode", ["clos", "global-random", "local-random"]
    )
    def test_convert_modes(self, capsys, mode):
        code, out = run_cli(capsys, "convert", "--k", "8", "--mode", mode)
        assert code == 0
        assert "plan:" in out
        assert "network:" in out

    def test_convert_shows_server_distribution(self, capsys):
        _code, out = run_cli(
            capsys, "convert", "--k", "8", "--mode", "global-random"
        )
        assert "core" in out


class TestCompare:
    def test_compare_table(self, capsys):
        code, out = run_cli(capsys, "compare", "--k", "4")
        assert code == 0
        for name in ("fat-tree", "flat-tree[global]", "two-stage"):
            assert name in out
        assert "avg path length" in out


class TestCost:
    def test_cost_table(self, capsys):
        code, out = run_cli(capsys, "cost", "--ks", "8", "16")
        assert code == 0
        assert "rel. cost" in out
        assert "0.070" in out


class TestSchedule:
    @pytest.mark.parametrize("tech", ["mems", "mzi", "packet"])
    def test_schedule_per_technology(self, capsys, tech):
        code, out = run_cli(
            capsys, "schedule", "--k", "8", "--technology", tech
        )
        assert code == 0
        assert "batches" in out


class TestExport:
    def test_dot(self, capsys):
        code, out = run_cli(capsys, "export", "--k", "4", "--format", "dot")
        assert code == 0
        assert out.startswith("graph")

    def test_json_parses(self, capsys):
        import json

        code, out = run_cli(capsys, "export", "--k", "4", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data["switches"]) == 20

    def test_edges(self, capsys):
        code, out = run_cli(capsys, "export", "--k", "4", "--format", "edges")
        assert code == 0
        assert len(out.strip().splitlines()) == 32


class TestFct:
    def test_fct_table(self, capsys):
        code, out = run_cli(capsys, "fct", "--ks", "4", "--flows", "12")
        assert code == 0
        assert "clos" in out and "global-random" in out

    def test_fct_monitored_conversion(self, capsys):
        code, out = run_cli(
            capsys, "fct", "--ks", "4", "--flows", "12", "--monitor"
        )
        assert code == 0
        assert "conversion at t=" in out
        assert "downtime ledger" in out
        assert "disruption:" in out
        assert "traversed dark links" in out

    def test_fct_monitor_technology(self, capsys):
        code, out = run_cli(
            capsys, "fct", "--ks", "4", "--flows", "12", "--monitor",
            "--technology", "mzi",
        )
        assert code == 0
        assert "Mach-Zehnder" in out


class TestMonitor:
    def test_alltoall_heatmap_and_hotspots(self, capsys):
        code, out = run_cli(
            capsys, "monitor", "--k", "4", "--pattern", "alltoall",
            "--flows", "24", "--top", "4",
        )
        assert code == 0
        assert "utilization % over" in out
        assert "links by peak utilization" in out
        assert "imbalance: gini" in out
        assert "->" in out

    def test_hotspot_pattern_with_mode(self, capsys):
        code, out = run_cli(
            capsys, "monitor", "--k", "4", "--pattern", "hotspot",
            "--flows", "8", "--mode", "global-random",
        )
        assert code == 0
        assert "mean FCT" in out

    def test_interval_and_retention_flags(self, capsys):
        code, out = run_cli(
            capsys, "monitor", "--k", "4", "--pattern", "hotspot",
            "--flows", "8", "--interval", "0.5", "--retention", "8",
        )
        assert code == 0
        assert "retention 8" in out

    @pytest.mark.parametrize("flag, value", [
        ("--bins", "0"),    # was IndexError in heatmap_table
        ("--flows", "-3"),  # was ValueError from random.sample
        ("--top", "-1"),    # silently dropped the least-busy link
    ])
    def test_out_of_range_count_is_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["monitor", "--k", "4", flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage: flattree monitor" in err
        assert f"argument {flag}: must be >=" in err


class TestDownscale:
    def test_downscale_runs(self, capsys):
        code, out = run_cli(
            capsys, "downscale", "--k", "4", "--floor", "0.5",
            "--flows", "2",
        )
        assert code == 0
        assert "baseline" in out


class TestReport:
    def test_report_writes_markdown(self, capsys, tmp_path):
        out = tmp_path / "r.md"
        code, text = run_cli(
            capsys, "report", "--out", str(out), "--scale", "quick"
        )
        assert code == 0
        assert "wrote" in text
        assert out.read_text().startswith("# Flat-tree reproduction report")


class TestUsage:
    def test_no_args_prints_help(self, capsys):
        code = main([])
        assert code == 2
        assert "experiments" in capsys.readouterr().out

    def test_bad_mode_rejected(self):
        with pytest.raises(SystemExit):
            main(["convert", "--k", "8", "--mode", "sideways"])

    @pytest.mark.parametrize("argv, message", [
        (["schedule", "--k", "4", "--max-batch", "0"],
         "argument --max-batch: must be >= 1"),
        (["chaos", "--max-batch", "0"], "argument --max-batch: must be >= 1"),
        (["chaos", "--trials", "0"], "argument --trials: must be >= 1"),
        (["degradation", "--draws", "0"], "argument --draws: must be >= 1"),
        (["monitor", "--retention", "0"],
         "argument --retention: must be >= 1"),
        (["monitor", "--interval", "-1"],
         "argument --interval: must be >= 0"),
        (["downscale", "--k", "4", "--flows", "0"],
         "argument --flows: must be >= 1"),
        (["fct", "--ks", "4", "--flows", "1", "--monitor"],
         "fct: monitored FCT needs at least 2 flows"),
        (["fct", "--ks", "4", "--flows", "0"],
         "argument --flows: must be >= 1"),
        (["fct", "--ks", "4", "--flows", "-1"],
         "argument --flows: must be >= 1"),
        (["convert", "--k", "5"], "argument --k: must be an even k >= 4"),
        (["fig8", "--ks", "4", "5"],
         "argument --ks: must be an even k >= 4, got 5"),
        (["cost", "--ks", "0"], "argument --ks: must be an even k >= 4"),
        (["schedule", "--k", "2"], "argument --k: must be an even k >= 4"),
        (["hybrid", "--k", "5"], "argument --k: must be an even k >= 4"),
        (["monitor", "--k", "5"], "argument --k: must be an even k >= 4"),
        (["chaos", "--k", "4", "--rates", "1.5", "--trials", "1"],
         "argument --rates: must be in [0, 1], got 1.5"),
        (["degradation", "--k", "4", "--fractions", "1.5", "--draws", "1"],
         "argument --fractions: must be in [0, 1), got 1.5"),
        (["degradation", "--k", "4", "--fractions", "-0.1"],
         "argument --fractions: must be in [0, 1), got -0.1"),
        (["hybrid", "--k", "4", "--fractions", "2.0"],
         "argument --fractions: must be in (0, 1), got 2.0"),
        (["hybrid", "--k", "4", "--fractions", "0"],
         "argument --fractions: must be in (0, 1), got 0.0"),
        (["downscale", "--k", "4", "--floor", "1.5"],
         "argument --floor: must be in (0, 1], got 1.5"),
        (["heal", "--soak", "--flows", "-3"],
         "argument --flows: must be >= 1, got -3"),
        (["heal", "--regret", "--episodes", "-1", "--duration", "3"],
         "argument --episodes: must be >= 0, got -1"),
    ], ids=["schedule-max-batch", "chaos-max-batch", "chaos-trials",
            "degradation-draws", "monitor-retention", "monitor-interval",
            "downscale-flows", "fct-monitor-flows", "fct-flows-zero",
            "fct-flows-negative", "convert-k-odd", "fig8-ks-odd",
            "cost-ks-zero", "schedule-k-two", "hybrid-k-odd",
            "monitor-k-odd", "chaos-rates", "degradation-fractions-high",
            "degradation-fractions-negative", "hybrid-fractions-high",
            "hybrid-fractions-zero", "downscale-floor", "heal-soak-flows",
            "heal-regret-episodes"])
    def test_out_of_range_number_exits_two(self, capsys, argv, message):
        """Each of these ended in a traceback (exit 1), except the negative
        ``--episodes``, which ran as if no episode was asked for."""
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert message in capsys.readouterr().err


class TestVersionAndInfo:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_info_lists_versions_and_sinks(self, capsys):
        import networkx

        import repro

        code, out = run_cli(capsys, "info")
        assert code == 0
        assert f"repro {repro.__version__}" in out
        assert f"networkx {networkx.__version__}" in out
        assert "telemetry: disabled" in out

    def test_info_lists_monitor_capabilities(self, capsys):
        _code, out = run_cli(capsys, "info")
        assert "monitor: events link_sample/link_down/link_up" in out
        assert "retention 1024" in out

    def test_info_reports_enabled_sink(self, capsys):
        code, out = run_cli(capsys, "--telemetry", "info")
        assert code == 0
        assert "telemetry: enabled -> stderr" in out

    def test_info_reports_lint_capability(self, capsys):
        from tools.flatlint import MYPY_STRICT_PACKAGES, all_rules

        code, out = run_cli(capsys, "info")
        assert code == 0
        lint_lines = [l for l in out.splitlines() if l.startswith("lint:")]
        assert len(lint_lines) == 1
        line = lint_lines[0]
        assert f"flatlint {len(all_rules())} rules" in line
        for rule in all_rules():
            assert rule.code in line
        for package in MYPY_STRICT_PACKAGES:
            assert package in line


class TestBenchCommand:
    """The perf capability line, and the perf commands that are gone."""

    def test_info_reports_perf_capability(self, capsys):
        code, out = run_cli(capsys, "info")
        assert code == 0
        assert "perf: span-tree profiler" in out
        assert "perfreport diff" in out
        assert "BENCH" not in out
        assert "trend" not in out

    @pytest.mark.parametrize("command", ["top", "hotspots", "bench"])
    def test_retired_subcommand_is_gone(self, capsys, command):
        # "Is the fabric healthy" is flattree health; "where did the
        # time go" is a span trace plus perfreport profile; the perf
        # record is perf/run.py.
        with pytest.raises(SystemExit) as excinfo:
            main([command])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err

    def test_trend_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trend"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'trend'" in capsys.readouterr().err


class TestTelemetry:
    def test_disabled_run_prints_no_telemetry(self, capsys):
        _code, out = run_cli(capsys, "cost", "--ks", "8")
        assert "== telemetry ==" not in out

    def test_table_printed_and_state_restored(self, capsys):
        from repro import obs

        code, out = run_cli(capsys, "--telemetry", "profile", "--k", "4")
        assert code == 0
        assert "== telemetry ==" in out
        assert "core.profiling.candidates" in out
        assert "span.cli_s" in out
        assert not obs.enabled()

    def test_jsonl_events_valid(self, capsys, tmp_path):
        import json

        path = tmp_path / "events.jsonl"
        code, out = run_cli(
            capsys, f"--telemetry={path}", "convert", "--k", "4",
            "--mode", "global-random",
        )
        assert code == 0
        assert "== telemetry ==" in out
        lines = path.read_text().strip().splitlines()
        assert lines
        for line in lines:
            event = json.loads(line)
            assert {"ts", "name", "kind"} <= set(event)
            assert "value" in event or "duration_s" in event
        names = {json.loads(line)["name"] for line in lines}
        assert "cli" in names                    # the top-level span
        assert "apply_layout" in names           # the conversion span
        assert "core.controller.reprogrammed" in names

    def test_monitor_run_exports_valid_link_events(self, capsys, tmp_path):
        import json

        from repro.obs.contract import check_line

        path = tmp_path / "monitor.jsonl"
        code, _out = run_cli(
            capsys, f"--telemetry={path}", "monitor", "--k", "4",
            "--pattern", "hotspot", "--flows", "8",
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "link_sample" in kinds
        for line in lines:
            assert check_line(line) == [], line


class TestChaosCommand:
    def test_chaos_prints_table(self, capsys):
        code, out = run_cli(
            capsys, "chaos", "--k", "4", "--rates", "0", "0.3",
            "--technologies", "mems", "--trials", "2", "--seed", "7",
        )
        assert code == 0
        assert "chaos sweep" in out
        assert "MEMS optical" in out
        assert "success" in out and "rolled_back" in out

    def test_chaos_output_deterministic(self, capsys):
        argv = ("chaos", "--k", "4", "--rates", "0.3",
                "--technologies", "mzi", "--trials", "2", "--seed", "3")
        _code, first = run_cli(capsys, *argv)
        _code, second = run_cli(capsys, *argv)
        assert first == second

    def test_chaos_telemetry_validates(self, capsys, tmp_path):
        from repro.obs.contract import check_line

        path = tmp_path / "chaos.jsonl"
        code, _out = run_cli(
            capsys, f"--telemetry={path}", "chaos", "--k", "4",
            "--rates", "0.3", "--technologies", "mems",
            "--trials", "2", "--seed", "7",
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines
        for line in lines:
            assert check_line(line) == [], line


class TestStartup:
    def test_cli_import_loads_no_scipy(self):
        """Only a solve, a max flow or a switch-distance call imports
        scipy, so starting the CLI loads none of it."""
        script = ("import sys, repro.cli; print(sorted(m for m in sys.modules"
                  " if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"
