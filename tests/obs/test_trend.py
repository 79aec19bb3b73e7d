"""Unit tests for the trajectory engine (repro.obs.trend)."""

from __future__ import annotations

import json

import pytest

from repro.obs import bench, trend


def points(values):
    return [trend.SeriesPoint(seq=i + 1, label=f"BENCH_{i + 1}.json",
                              value=v)
            for i, v in enumerate(values)]


def write_bench(root, seq, walls):
    session = {
        "schema": 1,
        "ts": 1700000000.0 + seq,
        "label": "t",
        "environment": {"python": "3.12.0", "implementation": "CPython",
                        "platform": "Linux-test", "machine": "x86_64",
                        "cpu_count": 8, "networkx": "3.3", "numpy": "2.0",
                        "scipy": "1.13", "repro": "1.0.0",
                        "git_commit": None, "git_dirty": None},
        "benchmarks": {
            key: {"wall_s": wall, "mean_s": wall, "stddev_s": 0.0,
                  "rounds": 1, "metrics": {}}
            for key, wall in walls.items()
        },
    }
    path = root / f"BENCH_{seq}.json"
    path.write_text(json.dumps(session), encoding="utf-8")
    return path


class TestNoiseModel:
    def test_injected_10x_step_is_flagged(self):
        series = points([0.50, 0.52, 0.48, 0.51, 5.0])
        result = trend.analyze_series("bench:x", series)
        assert result.status == "step-up"
        assert result.ratio == pytest.approx(5.0 / result.median)
        assert result.steps[-1].direction == "step-up"

    def test_noisy_but_flat_series_stays_green(self):
        # +/- ~10% jitter — inside the 25% relative floor by design.
        series = points([0.50, 0.55, 0.46, 0.53, 0.49, 0.56])
        result = trend.analyze_series("bench:x", series)
        assert result.status == "ok"
        assert result.steps == []

    def test_step_down_reported_but_not_a_regression(self):
        series = points([0.50, 0.52, 0.48, 0.51, 0.05])
        result = trend.analyze_series("bench:x", series)
        assert result.status == "step-down"

    def test_mad_band_matches_the_formula(self):
        history = [0.4, 0.5, 0.6, 0.9]
        series = points(history + [0.55])
        result = trend.analyze_series("bench:x", series)
        median = 0.55  # median of the 4-point history
        mad = 0.075  # |0.4-.55|=.15 |0.5|=.05 |0.6|=.05 |0.9|=.35 -> .1? no:
        # deviations sorted: .05 .05 .15 .35 -> median (0.05+0.15)/2 = 0.10
        mad = 0.10
        half = max(trend.DEFAULT_SIGMAS * trend.MAD_SCALE * mad,
                   bench.DEFAULT_TOLERANCE * median,
                   bench.DEFAULT_MIN_RUNTIME_S)
        assert result.median == pytest.approx(median)
        assert result.mad == pytest.approx(mad)
        assert result.band_high == pytest.approx(median + half)
        # the lower band is clamped at zero — wall times can't go negative
        assert result.band_low == pytest.approx(max(0.0, median - half))

    def test_one_historical_outlier_cannot_stretch_the_band(self):
        # A stddev-based band would be blown open by the 10.0 spike;
        # the MAD band must still flag the new 5.0 step.
        series = points([0.50, 0.52, 10.0, 0.48, 0.51, 0.49, 5.0])
        result = trend.analyze_series("bench:x", series)
        assert result.status == "step-up"

    def test_insufficient_history(self):
        result = trend.analyze_series("bench:x", points([0.5, 0.6]))
        assert result.status == "insufficient-history"
        assert result.delta is None

    def test_below_floor_micro_metrics_never_judged(self):
        series = points([0.0001, 0.0002, 0.0001, 0.0040])
        result = trend.analyze_series("bench:x", series)
        assert result.status == "below-floor"

    def test_historical_steps_recorded_alongside_newest(self):
        series = points([0.50, 0.51, 5.0, 5.1, 5.0, 5.05])
        result = trend.analyze_series("bench:x", series)
        assert result.status == "ok"  # the step is old news now
        # seq 3 breaks out; seq 4 is still above its window's median
        # (the window is majority-old until the new epoch dominates)
        assert [s.seq for s in result.steps] == [3, 4]
        assert all(s.direction == "step-up" for s in result.steps)

    def test_window_limits_the_history(self):
        # With window=3 the early slow epoch ages out and the newest
        # value is judged only against the recent fast epoch.
        series = points([5.0, 5.1, 4.9, 0.50, 0.51, 0.49, 5.0])
        result = trend.analyze_series("bench:x", series, window=3)
        assert result.status == "step-up"


class TestTrajectory:
    def test_flags_the_bench_that_stepped(self, tmp_path):
        for seq in (1, 2, 3):
            write_bench(tmp_path, seq, {"a.py::slow": 0.5, "a.py::ok": 1.0})
        write_bench(tmp_path, 4, {"a.py::slow": 5.0, "a.py::ok": 1.02})
        report = trend.analyze_trajectory(tmp_path)
        assert report.exit_code == 1
        assert [m.metric for m in report.regressions] == ["bench:a.py::slow"]
        ok = next(m for m in report.metrics if m.metric == "bench:a.py::ok")
        assert ok.status == "ok"
        assert report.sessions == [f"BENCH_{n}.json" for n in (1, 2, 3, 4)]

    def test_flat_trajectory_exits_zero(self, tmp_path):
        for seq, wall in enumerate((0.50, 0.55, 0.46, 0.53), start=1):
            write_bench(tmp_path, seq, {"a.py::x": wall})
        report = trend.analyze_trajectory(tmp_path)
        assert report.exit_code == 0

    def test_environment_drift_noted(self, tmp_path):
        write_bench(tmp_path, 1, {"a.py::x": 0.5})
        path = write_bench(tmp_path, 2, {"a.py::x": 0.5})
        session = json.loads(path.read_text())
        session["environment"]["numpy"] = "2.1"
        path.write_text(json.dumps(session), encoding="utf-8")
        report = trend.analyze_trajectory(tmp_path)
        assert any("numpy" in note and "'2.0' -> '2.1'" in note
                   for note in report.environment_drift)

    def test_unreadable_session_is_skipped_not_fatal(self, tmp_path):
        for seq in (1, 2, 3):
            write_bench(tmp_path, seq, {"a.py::x": 0.5})
        (tmp_path / "BENCH_4.json").write_text("{not json", encoding="utf-8")
        report = trend.analyze_trajectory(tmp_path)
        assert report.exit_code == 0
        assert any("BENCH_4.json" in note
                   for note in report.environment_drift)
        assert "BENCH_4.json" not in report.sessions


class TestRenderingAndEvent:
    def report(self, tmp_path):
        for seq in (1, 2, 3):
            write_bench(tmp_path, seq, {"a.py::slow": 0.5, "a.py::ok": 1.0})
        write_bench(tmp_path, 4, {"a.py::slow": 5.0, "a.py::ok": 1.02})
        return trend.analyze_trajectory(tmp_path)

    def test_text_orders_regressions_first(self, tmp_path):
        text = trend.render_text(self.report(tmp_path))
        lines = text.splitlines()
        first_metric_row = next(l for l in lines if l.startswith("step"))
        assert "bench:a.py::slow" in first_metric_row
        assert "1 regression(s)" in text

    def test_json_document_shape(self, tmp_path):
        document = trend.render_json(self.report(tmp_path))
        assert document["schema"] == "flattree.trend/1"
        assert document["regressions"] == 1
        slow = next(m for m in document["metrics"]
                    if m["metric"] == "bench:a.py::slow")
        assert slow["status"] == "step-up"
        assert len(slow["points"]) == 4
        json.dumps(document)  # must be serializable as-is

    def test_markdown_table(self, tmp_path):
        markdown = trend.render_markdown(self.report(tmp_path))
        assert "| **step-up** | `bench:a.py::slow` |" in markdown

    def test_emit_trend_event_matches_the_contract(self, tmp_path,
                                                   memory_sink):
        report = self.report(tmp_path)
        trend.emit_trend_event(report)
        events = [e for e in memory_sink.events
                  if e.get("name") == "perf.trend_session"]
        assert len(events) == 1
        assert events[0]["sessions"] == 4
        assert events[0]["metrics"] == 2
        assert events[0]["steps"] == 1
