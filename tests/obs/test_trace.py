"""Tests for span tracing, sinks, and disabled-mode no-op behavior."""

from __future__ import annotations

import json
import time

from repro import obs
from repro.obs.sinks import FileSink, MemorySink, NullSink
from repro.obs.trace import _NULL_CTX


class TestDisabledFastPath:
    def test_disabled_by_default(self, clean_obs):
        assert not obs.enabled()

    def test_helpers_record_nothing(self, clean_obs):
        obs.incr("a")
        obs.observe("b", 1.0)
        obs.set_gauge("c", 2.0)
        obs.event("d")
        assert obs.registry.snapshot() == {}

    def test_span_and_timer_return_shared_null_ctx(self, clean_obs):
        assert obs.span("x") is _NULL_CTX
        assert obs.timer("x") is _NULL_CTX
        with obs.span("x", attr=1):
            pass  # must be usable as a context manager

    def test_instrumented_library_call_stays_silent(self, clean_obs):
        from repro.topology.fattree import build_fat_tree

        build_fat_tree(4)
        assert obs.registry.snapshot() == {}


class TestEnabledMetrics:
    def test_incr_observe_gauge(self, memory_sink):
        obs.incr("hits", 2)
        obs.incr("hits")
        obs.observe("lat_s", 0.5)
        obs.set_gauge("depth", 3)
        snap = obs.registry.snapshot()
        assert snap["hits"]["value"] == 3
        assert snap["lat_s"]["count"] == 1
        assert snap["depth"]["value"] == 3

    def test_metric_events_emitted(self, memory_sink):
        obs.incr("hits")
        kinds = [e["kind"] for e in memory_sink.events]
        assert kinds == ["counter"]
        event = memory_sink.events[0]
        assert event["name"] == "hits"
        assert event["value"] == 1
        assert "ts" in event

    def test_timer_observes_elapsed(self, memory_sink):
        with obs.timer("t_s"):
            time.sleep(0.01)
        snap = obs.registry.snapshot()["t_s"]
        assert snap["count"] == 1
        assert snap["p50"] >= 0.005


class TestSpans:
    def test_nested_ordering_and_paths(self, memory_sink):
        with obs.span("outer", k=8):
            with obs.span("inner"):
                pass
        spans = [e for e in memory_sink.events if e["kind"] == "span"]
        # Children exit (and emit) before their parents.
        assert [s["name"] for s in spans] == ["inner", "outer"]
        inner, outer = spans
        assert inner["path"] == "outer/inner"
        assert inner["depth"] == 1
        assert outer["path"] == "outer"
        assert outer["depth"] == 0
        assert outer["k"] == 8

    def test_parent_duration_covers_child(self, memory_sink):
        with obs.span("outer"):
            with obs.span("inner"):
                time.sleep(0.005)
        spans = {e["name"]: e for e in memory_sink.events
                 if e["kind"] == "span"}
        assert spans["outer"]["duration_s"] >= spans["inner"]["duration_s"]
        assert spans["inner"]["duration_s"] >= 0.004

    def test_span_records_registry_histogram(self, memory_sink):
        with obs.span("phase"):
            pass
        assert obs.registry.snapshot()["span.phase_s"]["count"] == 1

    def test_span_marks_errors(self, memory_sink):
        try:
            with obs.span("boom"):
                raise ValueError("x")
        except ValueError:
            pass
        (event,) = [e for e in memory_sink.events if e["kind"] == "span"]
        assert event["error"] == "ValueError"

    def test_event_helper(self, memory_sink):
        obs.event("skipped", m=2, n=3, reason="infeasible")
        (event,) = memory_sink.events
        assert event["kind"] == "event"
        assert event["name"] == "skipped"
        assert event["m"] == 2 and event["reason"] == "infeasible"
        assert event["value"] == 1


class TestSpanContext:
    def test_ids_deterministic_and_reset_on_enable(self, clean_obs):
        def record():
            sink = MemorySink()
            obs.enable(sink)
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
            with obs.span("second"):
                pass
            obs.disable()
            return [(e["name"], e["span_id"], e["parent_id"])
                    for e in sink.events if e["kind"] == "span"]

        first = record()
        # Exit order: inner closes first; ids follow entry order.
        assert first == [("inner", 2, 1), ("outer", 1, None),
                         ("second", 3, None)]
        assert record() == first  # counter resets on enable()

    def test_sibling_spans_get_distinct_ids(self, memory_sink):
        with obs.span("parent"):
            with obs.span("child"):
                pass
            with obs.span("child"):
                pass
        spans = [e for e in memory_sink.events if e["kind"] == "span"]
        parent = next(s for s in spans if s["name"] == "parent")
        children = [s for s in spans if s["name"] == "child"]
        assert len({c["span_id"] for c in children}) == 2
        assert all(c["parent_id"] == parent["span_id"] for c in children)
        assert parent["parent_id"] is None

    def test_parent_id_always_below_span_id(self, memory_sink):
        with obs.span("a"):
            with obs.span("b"):
                with obs.span("c"):
                    pass
        for event in memory_sink.events:
            if event["kind"] == "span" and event["parent_id"] is not None:
                assert event["parent_id"] < event["span_id"]

    def test_worker_thread_span_is_a_root(self, memory_sink):
        # The span stack is per thread: a span a worker opens (the
        # self-heal loop's, say) never nests under the main thread's
        # open span, and leaves the main thread's parentage intact.
        import threading

        def work():
            with obs.span("worker"):
                pass

        with obs.span("outer"):
            worker = threading.Thread(target=work)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            with obs.span("after"):
                pass
        spans = {e["name"]: e for e in memory_sink.events
                 if e["kind"] == "span"}
        assert spans["worker"]["parent_id"] is None
        assert spans["worker"]["path"] == "worker"
        assert spans["worker"]["depth"] == 0
        assert spans["after"]["parent_id"] == spans["outer"]["span_id"]
        assert spans["after"]["path"] == "outer/after"


class TestTracemalloc:
    def test_mem_peak_recorded_when_enabled(self, clean_obs):
        import tracemalloc

        from repro.obs import contract

        sink = MemorySink()
        obs.enable(sink, trace_malloc=True)
        with obs.span("alloc"):
            blob = [0] * 50_000
            del blob
        obs.disable()
        assert not tracemalloc.is_tracing()  # we started it, we stop it
        (event,) = [e for e in sink.events if e["kind"] == "span"]
        assert event["mem_peak_kb"] >= 100  # the 50k-slot list is ~400 kB
        assert contract.check_event(event) == []

    def test_no_mem_field_by_default(self, memory_sink):
        with obs.span("x"):
            pass
        (event,) = [e for e in memory_sink.events if e["kind"] == "span"]
        assert "mem_peak_kb" not in event

    def test_env_var_opt_in(self, clean_obs, monkeypatch):
        monkeypatch.setenv(obs.TRACEMALLOC_ENV, "1")
        sink = MemorySink()
        obs.enable(sink)
        with obs.span("x"):
            pass
        obs.disable()
        (event,) = [e for e in sink.events if e["kind"] == "span"]
        assert event["mem_peak_kb"] >= 0

    def test_preexisting_tracing_left_running(self, clean_obs):
        import tracemalloc

        tracemalloc.start()
        try:
            obs.enable(MemorySink(), trace_malloc=True)
            obs.disable()
            assert tracemalloc.is_tracing()  # not ours to stop
        finally:
            tracemalloc.stop()


class TestSinks:
    def test_disable_resets_to_null_sink(self, memory_sink):
        obs.disable()
        assert isinstance(obs.current_sink(), NullSink)
        assert not obs.enabled()

    def test_file_sink_writes_jsonl(self, clean_obs, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.enable(FileSink(str(path)), emit_metric_events=True)
        obs.incr("a")
        with obs.span("s"):
            pass
        obs.disable()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            event = json.loads(line)
            assert {"ts", "name", "kind"} <= set(event)
            assert "value" in event or "duration_s" in event

    def test_memory_sink_clear(self, clean_obs):
        sink = MemorySink()
        sink.emit({"a": 1})
        assert sink.describe() == "memory(1 events)"
        sink.clear()
        assert sink.events == []


class TestInstrumentedPaths:
    def test_fattree_build_metrics(self, memory_sink):
        from repro.topology.fattree import build_fat_tree

        build_fat_tree(4)
        snap = obs.registry.snapshot()
        assert snap["topology.fattree.builds"]["value"] == 1
        assert snap["topology.fattree.build_s"]["count"] == 1
        assert snap["topology.fattree.switches"]["value"] == 20

    def test_jellyfish_repair_metrics(self, memory_sink):
        from repro.topology.jellyfish import build_jellyfish_like_fat_tree

        build_jellyfish_like_fat_tree(4)
        snap = obs.registry.snapshot()
        assert snap["topology.jellyfish.builds"]["value"] == 1
        assert "topology.jellyfish.repair_iterations" in snap

    def test_conversion_metrics(self, memory_sink):
        from repro import FlatTree, FlatTreeDesign, Mode, convert

        ft = FlatTree(FlatTreeDesign.for_fat_tree(4))
        convert(ft, Mode.GLOBAL_RANDOM)
        snap = obs.registry.snapshot()
        assert snap["core.conversion.converts"]["value"] == 1
        assert snap["core.conversion.reprogrammed"]["value"] > 0

    def test_mcf_exact_metrics(self, memory_sink, path3):
        from repro.mcf.commodities import Commodity, build_flow_problem
        from repro.mcf.exact import solve_concurrent_exact

        problem = build_flow_problem(path3, [Commodity(0, 1)])
        solve_concurrent_exact(problem)
        snap = obs.registry.snapshot()
        assert snap["mcf.exact.solves"]["value"] == 1
        assert snap["mcf.exact.solve_s"]["count"] == 1
        assert snap["mcf.exact.last_objective"]["value"] > 0

    def test_flowsim_metrics(self, memory_sink, triangle):
        from repro.flowsim.simulator import FlowSimulator, FlowSpec
        from repro.routing.base import Path

        def router(src, dst, fid):
            return Path((triangle.server_switch(src),
                         triangle.server_switch(dst)))

        sim = FlowSimulator(triangle, router)
        sim.run([FlowSpec(0, 0, 1, size=1.0), FlowSpec(1, 1, 2, size=2.0)])
        snap = obs.registry.snapshot()
        assert snap["flowsim.flows_completed"]["value"] == 2
        assert snap["flowsim.events"]["value"] >= 2
        assert snap["flowsim.fairshare_recomputes"]["value"] >= 1
