"""Unit tests for the span-tree profiler (repro.obs.perf)."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.errors import ReproError
from repro.obs.perf import Profile
from repro.obs.sinks import MemorySink


def span(name, span_id, parent_id, path, depth, duration_s, **extra):
    base = {"ts": 1.0, "name": name, "kind": "span",
            "duration_s": duration_s, "path": path, "depth": depth,
            "span_id": span_id, "parent_id": parent_id}
    base.update(extra)
    return base


def small_tree():
    """root(1.0s) -> child(0.3s), child(0.2s); exit-ordered stream."""
    return [
        span("child", 2, 1, "root/child", 1, 0.3),
        span("child", 3, 1, "root/child", 1, 0.2),
        span("root", 1, None, "root", 0, 1.0, mode="clos"),
    ]


class TestReconstruction:
    def test_links_by_ids(self):
        profile = Profile.from_events(small_tree())
        assert len(profile.roots) == 1
        root = profile.roots[0]
        assert root.name == "root"
        assert [c.span_id for c in root.children] == [2, 3]
        assert root.self_s == pytest.approx(0.5)
        assert root.attrs == {"mode": "clos"}

    def test_sibling_spans_sharing_a_name_stay_distinct(self):
        profile = Profile.from_events(small_tree())
        children = profile.roots[0].children
        assert [c.name for c in children] == ["child", "child"]
        assert children[0].duration_s != children[1].duration_s

    def test_non_span_events_ignored(self):
        events = [{"ts": 1, "name": "c", "kind": "counter", "value": 1},
                  span("root", 1, None, "root", 0, 0.5)]
        profile = Profile.from_events(events)
        assert len(profile.nodes) == 1

    def test_duplicate_ids_rejected(self):
        events = [span("a", 1, None, "a", 0, 0.1),
                  span("b", 1, None, "b", 0, 0.1)]
        with pytest.raises(ReproError, match="duplicate span_id"):
            Profile.from_events(events)

    def test_malformed_span_rejected(self):
        with pytest.raises(ReproError, match="malformed span"):
            Profile.from_events([{"kind": "span", "name": "x"}])

    @pytest.mark.parametrize(
        "span_id", [None, 0, -1, True, "1"],
        ids=["missing", "zero", "negative", "bool", "string"])
    def test_span_without_positive_integer_id_rejected(self, span_id):
        inner = {"ts": 1, "name": "inner", "kind": "span",
                 "duration_s": 0.2, "path": "outer/inner", "depth": 1}
        if span_id is not None:
            inner["span_id"] = span_id
        events = [inner, span("outer", 1, None, "outer", 0, 0.5)]
        with pytest.raises(ReproError, match="span 'inner' has no "
                                             "positive integer span_id"):
            Profile.from_events(events)

    def test_recorded_memory_sink_events_round_trip(self, clean_obs):
        sink = MemorySink()
        obs.enable(sink)
        with obs.span("cli"):
            with obs.span("build"):
                pass
            with obs.span("convert"):
                pass
        obs.disable()
        profile = Profile.from_events(sink.events)
        assert [r.name for r in profile.roots] == ["cli"]
        assert [c.name for c in profile.roots[0].children] == [
            "build", "convert"]


class TestFromJsonl:
    def test_loads_trace_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        lines = [json.dumps(e) for e in small_tree()]
        path.write_text("\n".join(lines) + "\n\n")  # trailing blank line ok
        profile = Profile.from_jsonl(str(path))
        assert len(profile.nodes) == 3
        assert profile.total_s == pytest.approx(1.0)

    def test_bad_json_line_raises_with_lineno(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps(small_tree()[0]) + "\n{nope\n")
        with pytest.raises(ReproError, match=r":2: not valid JSONL"):
            Profile.from_jsonl(str(path))


class TestReports:
    def test_total_is_sum_of_roots(self):
        events = small_tree() + [span("other", 4, None, "other", 0, 0.5)]
        assert Profile.from_events(events).total_s == pytest.approx(1.5)

    def test_walk_yields_parents_before_children(self):
        profile = Profile.from_events(small_tree())
        names = [n.name for n in profile.walk()]
        assert names[0] == "root"
        assert sorted(names) == ["child", "child", "root"]

    def test_aggregate_cum_and_self(self):
        stats = {s.name: s for s in
                 Profile.from_events(small_tree()).aggregate()}
        assert stats["root"].calls == 1
        assert stats["root"].cum_s == pytest.approx(1.0)
        assert stats["root"].self_s == pytest.approx(0.5)
        assert stats["child"].calls == 2
        assert stats["child"].cum_s == pytest.approx(0.5)
        assert stats["child"].self_s == pytest.approx(0.5)

    def test_aggregate_recursive_span_self_never_double_counts(self):
        events = [
            span("f", 2, 1, "f/f", 1, 0.4),
            span("f", 1, None, "f", 0, 1.0),
        ]
        (stats,) = Profile.from_events(events).aggregate()
        assert stats.calls == 2
        assert stats.cum_s == pytest.approx(1.4)  # subtree counted twice
        assert stats.self_s == pytest.approx(1.0)  # exact

    def test_aggregate_orders_heaviest_self_first(self):
        names = [s.name for s in
                 Profile.from_events(small_tree()).aggregate()]
        assert names == ["child", "root"]  # 0.5s self each; name breaks tie

    def test_aggregate_mem_takes_per_name_peak(self):
        events = [
            span("work", 2, 1, "root/work", 1, 0.1, mem_peak_kb=10.0),
            span("work", 3, 1, "root/work", 1, 0.1, mem_peak_kb=80.0),
            span("root", 1, None, "root", 0, 0.5, mem_peak_kb=90.0),
        ]
        stats = {s.name: s for s in Profile.from_events(events).aggregate()}
        assert stats["work"].mem_peak_kb == pytest.approx(80.0)
        assert stats["root"].mem_peak_kb == pytest.approx(90.0)

    def test_critical_path_descends_heaviest_child(self):
        events = small_tree() + [
            span("grand", 4, 2, "root/child/grand", 2, 0.25),
        ]
        # Re-link: child #2 (0.3s) holds the 0.25s grandchild.
        chain = Profile.from_events(events).critical_path()
        assert [n.name for n in chain] == ["root", "child", "grand"]
        assert chain[1].span_id == 2

    def test_critical_path_empty_profile(self):
        assert Profile.from_events([]).critical_path() == []

    def test_folded_sums_identical_paths_in_integer_usec(self):
        folded = Profile.from_events(small_tree()).folded()
        assert folded == ["root 500000", "root;child 500000"]
        for line in folded:
            stack, weight = line.rsplit(" ", 1)
            assert int(weight) >= 0

    def test_folded_escapes_semicolons_in_names(self):
        events = [span("a;b", 1, None, "a;b", 0, 0.1)]
        (line,) = Profile.from_events(events).folded()
        assert line == "a,b 100000"

    def test_render_table_mentions_critical_path(self):
        text = Profile.from_events(small_tree()).render_table()
        assert "3 spans, 1 roots" in text
        assert "critical path:" in text
        assert "root" in text and "child" in text
        assert "peak_kb" not in text  # no mem data in this trace

    def test_render_table_shows_mem_column_when_present(self):
        events = [span("root", 1, None, "root", 0, 0.5, mem_peak_kb=64.0)]
        text = Profile.from_events(events).render_table()
        assert "peak_kb" in text
        assert "64.0" in text
