"""Tests for the perfreport CLI and its two-trace diff.

``perfreport diff BASE.jsonl NEW.jsonl``
(:func:`repro.obs.diffprof.diff_profiles`) says which span moved
between two telemetry traces, so its rule is proven here against
fixture traces: a self-diff must pass, an injected 10x slowdown must
fail with exit code 1, and unreadable input must exit 2 — the
flatlint exit-code convention.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import diffprof
from repro.obs.perf import Profile
from tools.perfreport.__main__ import main


def trace_events(walls):
    """One root span per ``name: seconds`` entry, as the tracer writes."""
    return [
        {"ts": 1.0, "name": name, "kind": "span", "duration_s": wall,
         "path": name, "depth": 0, "span_id": span_id, "parent_id": None}
        for span_id, (name, wall) in enumerate(walls.items(), start=1)
    ]


def make_profile(walls):
    return Profile.from_events(trace_events(walls))


def statuses(diff):
    return {d.path: d.status for d in diff.deltas}


class TestCompareSessions:
    """The pairwise judge over two telemetry traces."""

    def test_self_compare_is_clean(self):
        profile = make_profile({"build": 0.5, "solve": 1.25})
        diff = diffprof.diff_profiles(profile, profile)
        assert diff.exit_code == 0
        assert set(statuses(diff).values()) == {"steady"}

    def test_injected_10x_slowdown_is_a_regression(self):
        base = make_profile({"solve": 0.5})
        slow = make_profile({"solve": 5.0})
        diff = diffprof.diff_profiles(base, slow)
        assert statuses(diff) == {"solve": "grown"}
        assert diff.deltas[0].ratio == pytest.approx(10.0)
        assert diff.exit_code == 1

    def test_below_floor_never_judged(self):
        base = make_profile({"solve": 0.0001})
        new = make_profile({"solve": 0.004})  # 40x, but both < 5 ms
        diff = diffprof.diff_profiles(base, new)
        assert statuses(diff) == {"solve": "below-floor"}
        assert diff.exit_code == 0

    def test_floor_applies_only_when_both_sides_are_under(self):
        base = make_profile({"solve": 0.001})
        new = make_profile({"solve": 0.5})  # new side is well over
        diff = diffprof.diff_profiles(base, new)
        assert statuses(diff) == {"solve": "grown"}

    def test_added_and_removed(self):
        base = make_profile({"old": 0.5})
        new = make_profile({"new": 0.5})
        diff = diffprof.diff_profiles(base, new)
        assert statuses(diff) == {"new": "new", "old": "gone"}
        assert diff.exit_code == 0

    def test_improvement_does_not_fail_the_gate(self):
        diff = diffprof.diff_profiles(make_profile({"solve": 1.0}),
                                      make_profile({"solve": 0.5}))
        assert statuses(diff) == {"solve": "shrunk"}
        assert diff.exit_code == 0

    def test_within_default_tolerance_is_ok(self):
        diff = diffprof.diff_profiles(make_profile({"solve": 1.0}),
                                      make_profile({"solve": 1.2}))
        assert statuses(diff) == {"solve": "steady"}

    def test_custom_tolerance_tightens_the_gate(self):
        diff = diffprof.diff_profiles(
            make_profile({"solve": 1.0}), make_profile({"solve": 1.2}),
            tolerance=0.10)
        assert statuses(diff) == {"solve": "grown"}

    def test_defaults_are_documented_values(self):
        assert diffprof.DEFAULT_TOLERANCE == 0.25
        assert diffprof.DEFAULT_MIN_RUNTIME_S == 0.005
        profile = make_profile({"solve": 1.0})
        diff = diffprof.diff_profiles(profile, profile)
        assert (diff.tolerance, diff.min_runtime_s) == (0.25, 0.005)


class TestRenderers:
    """Text and JSON renderings of a trace diff."""

    def test_text_orders_regressions_first_and_summarizes(self):
        base = make_profile({"fast": 0.5, "slow": 0.5})
        new = make_profile({"fast": 0.5, "slow": 5.0})
        text = diffprof.render_text(diffprof.diff_profiles(base, new))
        lines = text.splitlines()
        assert lines[0].startswith("perfreport diff: base -> new")
        first_status_line = next(l for l in lines if l.startswith(
            ("grown", "steady")))
        assert first_status_line.startswith("grown")
        assert lines[-1] == "1 grown, 0 shrunk across 2 aligned path(s)"

    def test_json_shape(self):
        diff = diffprof.diff_profiles(make_profile({"solve": 0.5}),
                                      make_profile({"solve": 5.0}))
        document = diffprof.render_json(diff)
        assert document["grown"] == 1
        assert [c["name"] for c in document["critical_new"]] == ["solve"]
        (delta,) = document["deltas"]
        assert delta["status"] == "grown"
        assert delta["ratio"] == pytest.approx(10.0)
        json.dumps(document)  # must be JSON-serializable as-is


def write_trace_file(tmp_path, name, walls):
    path = tmp_path / name
    path.write_text("".join(json.dumps(e) + "\n"
                            for e in trace_events(walls)),
                    encoding="utf-8")
    return str(path)


class TestCompareCli:
    """``perfreport diff BASE NEW`` over two telemetry traces."""

    def test_self_compare_exits_zero(self, tmp_path, capsys):
        path = write_trace_file(tmp_path, "a.jsonl", {"solve": 0.5})
        assert main(["diff", path, path]) == 0
        assert "0 grown" in capsys.readouterr().out

    def test_regression_exits_one(self, tmp_path, capsys):
        base = write_trace_file(tmp_path, "a.jsonl", {"solve": 0.5})
        slow = write_trace_file(tmp_path, "b.jsonl", {"solve": 5.0})
        assert main(["diff", base, slow]) == 1
        assert "grown" in capsys.readouterr().out

    def test_tolerance_flag_tightens_the_gate(self, tmp_path, capsys):
        base = write_trace_file(tmp_path, "a.jsonl", {"solve": 1.0})
        new = write_trace_file(tmp_path, "b.jsonl", {"solve": 1.2})
        assert main(["diff", base, new]) == 0
        assert main(["diff", base, new, "--tolerance", "0.1"]) == 1
        assert "tolerance 10%" in capsys.readouterr().out

    def test_min_runtime_flag_raises_the_floor(self, tmp_path, capsys):
        base = write_trace_file(tmp_path, "a.jsonl", {"solve": 0.01})
        new = write_trace_file(tmp_path, "b.jsonl", {"solve": 0.04})
        assert main(["diff", base, new]) == 1
        assert main(["diff", base, new, "--min-runtime", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "floor 50 ms" in out
        assert "below-floor" in out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        path = write_trace_file(tmp_path, "a.jsonl", {"solve": 0.5})
        assert main(["diff", str(tmp_path / "nope.jsonl"), path]) == 2
        assert "perfreport:" in capsys.readouterr().err

    def test_schema_violation_exits_two(self, tmp_path, capsys):
        good = write_trace_file(tmp_path, "a.jsonl", {"solve": 0.5})
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(
            {"ts": 1.0, "name": "solve", "kind": "span", "duration_s": 0.5,
             "path": "solve", "depth": 0}) + "\n", encoding="utf-8")
        assert main(["diff", good, str(bad)]) == 2
        assert ("span 'solve' has no positive integer span_id"
                in capsys.readouterr().err)

    def test_json_format_parses(self, tmp_path, capsys):
        path = write_trace_file(tmp_path, "a.jsonl", {"solve": 0.5})
        assert main(["diff", path, path, "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["grown"] == 0
        assert document["base"] == "a.jsonl"

    def test_no_subcommand_exits_two(self, capsys):
        assert main([]) == 2
        assert "diff" in capsys.readouterr().out

    def test_compare_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'compare'" in capsys.readouterr().err

    def test_hotspots_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["hotspots"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'hotspots'" in capsys.readouterr().err

    def test_trend_subcommand_is_gone(self, capsys):
        # perf/run.py alternating pairs are the one perf judge.
        with pytest.raises(SystemExit) as excinfo:
            main(["trend"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'trend'" in capsys.readouterr().err

    @pytest.mark.parametrize("paths", [0, 1], ids=["none", "one"])
    def test_diff_needs_two_paths(self, tmp_path, capsys, paths):
        trace = write_trace_file(tmp_path, "a.jsonl", {"solve": 0.5})
        with pytest.raises(SystemExit) as excinfo:
            main(["diff", *[trace] * paths])
        assert excinfo.value.code == 2
        assert "required" in capsys.readouterr().err

    def test_bench_session_input_is_a_usage_error(self, tmp_path, capsys):
        # A retired bench session file, written as its writer did.
        session = tmp_path / "session.json"
        session.write_text(json.dumps(
            {"schema": 1, "environment": {},
             "benchmarks": {"a.py::t": {"wall_s": 0.5, "metrics": {}}}},
            indent=1, sort_keys=True) + "\n", encoding="utf-8")
        trace = write_trace_file(tmp_path, "a.jsonl", {"solve": 0.5})
        assert main(["diff", str(session), trace]) == 2
        assert "not valid JSONL" in capsys.readouterr().err


def write_trace(tmp_path):
    events = [
        {"ts": 1.0, "name": "convert", "kind": "span", "duration_s": 0.25,
         "path": "cli/convert", "depth": 1, "span_id": 2, "parent_id": 1},
        {"ts": 1.0, "name": "cli", "kind": "span", "duration_s": 1.0,
         "path": "cli", "depth": 0, "span_id": 1, "parent_id": None},
    ]
    path = tmp_path / "run.jsonl"
    path.write_text("\n".join(json.dumps(e) for e in events) + "\n",
                    encoding="utf-8")
    return str(path)


class TestProfileCli:
    def test_profile_text_report(self, tmp_path, capsys):
        assert main(["profile", write_trace(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 spans, 1 roots" in out
        assert "critical path:" in out

    def test_profile_json_report(self, tmp_path, capsys):
        assert main(["profile", write_trace(tmp_path),
                     "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["spans"] == 2
        assert [n["name"] for n in document["critical_path"]] == [
            "cli", "convert"]

    def test_flamegraph_stdout(self, tmp_path, capsys):
        assert main(["flamegraph", write_trace(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cli 750000" in out
        assert "cli;convert 250000" in out

    def test_flamegraph_out_file(self, tmp_path, capsys):
        folded = tmp_path / "run.folded"
        assert main(["flamegraph", write_trace(tmp_path),
                     "--out", str(folded)]) == 0
        assert "cli;convert 250000" in folded.read_text()

    def test_empty_trace_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["profile", str(empty)]) == 2
        assert "no span events" in capsys.readouterr().err

    def test_garbage_trace_exits_two(self, tmp_path, capsys):
        garbage = tmp_path / "bad.jsonl"
        garbage.write_text("{not json\n", encoding="utf-8")
        assert main(["flamegraph", str(garbage)]) == 2
        assert "not valid JSONL" in capsys.readouterr().err


class TestDiffCli:
    def test_trace_diff_attributes_injected_slowdown(self, tmp_path,
                                                     capsys):
        base = write_trace_file(tmp_path, "a.jsonl",
                                {"slow": 0.5, "ok": 1.0})
        new = write_trace_file(tmp_path, "b.jsonl",
                               {"slow": 5.0, "ok": 1.0})
        assert main(["diff", base, new]) == 1
        out = capsys.readouterr().out
        grown_rows = [l for l in out.splitlines() if l.startswith("grown")]
        assert len(grown_rows) == 1
        assert grown_rows[0].endswith("  slow")
        assert "10.00x" in grown_rows[0]

    def test_trace_diff_via_jsonl_inputs(self, tmp_path, capsys):
        base = write_trace(tmp_path)
        folded = tmp_path / "diff.folded"
        assert main(["diff", base, base, "--folded", str(folded)]) == 0
        out = capsys.readouterr().out
        assert "perfreport diff: run.jsonl -> run.jsonl" in out
        assert "critical path" in out
        lines = folded.read_text(encoding="utf-8").splitlines()
        assert "cli;convert 250000 250000" in lines
        for line in lines:
            stack, base_us, new_us = line.rsplit(" ", 2)
            assert stack
            assert base_us == new_us  # self-diff: both columns equal

    def test_json_format_parses(self, tmp_path, capsys):
        base = write_trace(tmp_path)
        assert main(["diff", base, base, "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["grown"] == 0
        assert [c["name"] for c in document["critical_base"]] == [
            "cli", "convert"]

    def test_trace_without_span_ids_exits_two(self, tmp_path, capsys):
        # A trace whose spans carry no ids is refused, naming the first
        # such span, rather than linked by guesswork.
        with open(write_trace(tmp_path), encoding="utf-8") as f:
            events = [{k: v for k, v in json.loads(line).items()
                       if k not in ("span_id", "parent_id")} for line in f]
        path = tmp_path / "legacy.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in events),
                        encoding="utf-8")
        assert main(["diff", str(path), str(path)]) == 2
        assert ("span 'convert' has no positive integer span_id"
                in capsys.readouterr().err)

    def test_unrecognized_input_exits_two(self, tmp_path, capsys):
        # JSON documents that hold no span: a stray object, and a
        # leftover sampling-profiler campaign artifact.
        documents = {
            "mystery.json": {"what": "is this"},
            "campaign.json": {"schema": "flattree.hotspots/1", "k": 8,
                              "stages": [], "functions": [], "folded": []},
        }
        for name, document in documents.items():
            bad = tmp_path / name
            bad.write_text(json.dumps(document) + "\n", encoding="utf-8")
            assert main(["diff", str(bad), str(bad)]) == 2, name
            assert "no span events" in capsys.readouterr().err
