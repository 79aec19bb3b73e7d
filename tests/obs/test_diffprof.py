"""Unit tests for the differential profiler (repro.obs.diffprof)."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.obs import diffprof
from repro.obs.perf import Profile


def span(name, span_id, parent_id, path, depth, duration_s, **extra):
    base = {"ts": 1.0, "name": name, "kind": "span",
            "duration_s": duration_s, "path": path, "depth": depth,
            "span_id": span_id, "parent_id": parent_id}
    base.update(extra)
    return base


def tree(solver_s, build_s=0.4, mem=None):
    """cli -> {build, solve}; ``solver_s`` is the knob under test."""
    extra = {"mem_peak_kb": mem} if mem is not None else {}
    return [
        span("build", 2, 1, "cli/build", 1, build_s),
        span("solve", 3, 1, "cli/solve", 1, solver_s, **extra),
        span("cli", 1, None, "cli", 0, build_s + solver_s + 0.1),
    ]


class TestSpanTreeDiff:
    def test_injected_slowdown_attributed_to_the_right_path(self):
        base = Profile.from_events(tree(solver_s=0.05))
        new = Profile.from_events(tree(solver_s=0.5))
        diff = diffprof.diff_profiles(base, new)
        assert diff.exit_code == 1
        grown = {d.path for d in diff.grown}
        assert "cli/solve" in grown
        assert "cli/build" not in grown
        solve = next(d for d in diff.deltas if d.path == "cli/solve")
        assert solve.ratio == pytest.approx(10.0)
        assert solve.cum_delta_s == pytest.approx(0.45)

    def test_steady_tree_exits_zero(self):
        base = Profile.from_events(tree(solver_s=0.2))
        new = Profile.from_events(tree(solver_s=0.21))
        diff = diffprof.diff_profiles(base, new)
        assert diff.exit_code == 0
        assert all(d.status in ("steady", "below-floor")
                   for d in diff.deltas)

    def test_new_and_gone_paths_classified(self):
        base = Profile.from_events(tree(solver_s=0.2))
        extra = tree(solver_s=0.2)
        extra.insert(0, span("mcf", 4, 1, "cli/mcf", 1, 0.3))
        new = Profile.from_events(extra)
        diff = diffprof.diff_profiles(base, new)
        mcf = next(d for d in diff.deltas if d.path == "cli/mcf")
        assert mcf.status == "new"
        reverse = diffprof.diff_profiles(new, base)
        mcf = next(d for d in reverse.deltas if d.path == "cli/mcf")
        assert mcf.status == "gone"

    def test_below_floor_paths_never_judged(self):
        base = Profile.from_events(tree(solver_s=0.0001))
        new = Profile.from_events(tree(solver_s=0.004))
        diff = diffprof.diff_profiles(base, new)
        solve = next(d for d in diff.deltas if d.path == "cli/solve")
        assert solve.status == "below-floor"  # 40x but under 5 ms

    def test_mem_delta_reported(self):
        base = Profile.from_events(tree(solver_s=0.2, mem=1000.0))
        new = Profile.from_events(tree(solver_s=0.2, mem=1800.0))
        diff = diffprof.diff_profiles(base, new)
        solve = next(d for d in diff.deltas if d.path == "cli/solve")
        assert solve.mem_delta_kb == pytest.approx(800.0)

    def test_repeated_calls_collapse_onto_one_path(self):
        events = [
            span("step", 2, 1, "cli/step", 1, 0.2),
            span("step", 3, 1, "cli/step", 1, 0.3),
            span("cli", 1, None, "cli", 0, 0.6),
        ]
        diff = diffprof.diff_profiles(Profile.from_events(events),
                                      Profile.from_events(events))
        step = next(d for d in diff.deltas if d.path == "cli/step")
        assert step.base_calls == 2
        assert step.base_cum_s == pytest.approx(0.5)

    def test_critical_path_divergence_reported(self):
        base = Profile.from_events(tree(solver_s=0.1))  # build heavier
        new = Profile.from_events(tree(solver_s=0.9))  # solve heavier
        diff = diffprof.diff_profiles(base, new)
        assert diff.critical_divergence() == 1
        text = diffprof.render_text(diff)
        assert "critical paths diverge at depth 1" in text


class TestFolded:
    def test_parse_and_subtract(self):
        base = diffprof.parse_folded(["cli;solve 100", "cli;build 50"])
        new = diffprof.parse_folded(["cli;solve 900", "cli;fresh 10"])
        lines = diffprof.subtract_folded(base, new)
        assert lines == [
            "cli;build 50 0",
            "cli;fresh 0 10",
            "cli;solve 100 900",
        ]

    def test_parse_sums_duplicate_stacks(self):
        weights = diffprof.parse_folded(["a;b 10", "a;b 15", ""])
        assert weights == {"a;b": 25}

    def test_parse_rejects_garbage(self):
        with pytest.raises(ReproError, match="folded line 1"):
            diffprof.parse_folded(["no-weight-here"])

    def test_round_trips_profile_folded_output(self):
        base = Profile.from_events(tree(solver_s=0.1))
        new = Profile.from_events(tree(solver_s=0.4))
        lines = diffprof.subtract_folded(
            diffprof.parse_folded(base.folded()),
            diffprof.parse_folded(new.folded()))
        solve = next(l for l in lines if l.startswith("cli;solve "))
        _, base_us, new_us = solve.rsplit(" ", 2)
        assert int(new_us) - int(base_us) == pytest.approx(300_000, abs=2)


class TestRenderingAndEvent:
    def diff(self):
        return diffprof.diff_profiles(
            Profile.from_events(tree(solver_s=0.05)),
            Profile.from_events(tree(solver_s=0.5)),
            base_label="base.jsonl", new_label="new.jsonl")

    def test_text_mentions_labels_and_counts(self):
        text = diffprof.render_text(self.diff())
        assert "base.jsonl -> new.jsonl" in text
        assert "2 grown" in text  # cli/solve plus its cli ancestor
        assert "cli/solve" in text

    def test_json_document_shape(self):
        document = diffprof.render_json(self.diff())
        assert document["grown"] == 2
        paths = {d["path"]: d for d in document["deltas"]}
        assert paths["cli/solve"]["status"] == "grown"
        assert paths["cli/solve"]["ratio"] == pytest.approx(10.0)

    def test_emit_diff_event_matches_the_contract(self, memory_sink):
        diffprof.emit_diff_event(self.diff())
        events = [e for e in memory_sink.events
                  if e.get("name") == "perf.diff_session"]
        assert len(events) == 1
        assert events[0]["base"] == "base.jsonl"
        assert events[0]["grown"] == 2
        assert events[0]["shrunk"] == 0
