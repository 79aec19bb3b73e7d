"""HOTSPOTS_<seq>.json artifacts: discovery, schema, round-trip."""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.obs import bench, hotspots
from repro.obs.sampler import SampleProfile


def touch(tmp_path, name):
    (tmp_path / name).write_text("{}\n", encoding="utf-8")


def make_profile():
    counts = {
        ("hotspots.campaign/hotspots.mcf", ("mod.solve", "mod.dijkstra")): 8,
        ("hotspots.campaign/hotspots.build", ("mod.build",)): 2,
    }
    return SampleProfile(counts, samples=10, duration_s=2.0, hz=97.0)


def make_document(tmp_path=None):
    stages = [
        {"name": "build", "span": "hotspots.campaign/hotspots.build",
         "wall_s": 0.5},
        {"name": "mcf", "span": "hotspots.campaign/hotspots.mcf",
         "wall_s": 1.5},
    ]
    return hotspots.build_document(
        make_profile(), stages, k=8, label="test")


class TestSequence:
    """Both numbered prefixes share one root without sharing slots."""

    def test_discovery_ignores_tags_and_sorts(self, tmp_path):
        for prefix in ("BENCH", "HOTSPOTS"):
            for name in ("2.json", "1.json", "smoke.json"):
                touch(tmp_path, f"{prefix}_{name}")
        for prefix in ("BENCH", "HOTSPOTS"):
            names = [p.name for p in bench.session_paths(tmp_path, prefix)]
            assert names == [f"{prefix}_1.json", f"{prefix}_2.json"]

    def test_next_free_slot(self, tmp_path):
        assert (bench.next_session_path(tmp_path, hotspots.PREFIX).name
                == "HOTSPOTS_1.json")
        touch(tmp_path, "HOTSPOTS_3.json")
        touch(tmp_path, "BENCH_7.json")
        assert (bench.next_session_path(tmp_path, hotspots.PREFIX).name
                == "HOTSPOTS_4.json")
        assert bench.next_session_path(tmp_path).name == "BENCH_8.json"


class TestDocument:
    def test_build_is_schema_valid(self):
        document = make_document()
        assert hotspots.validate_document(document) == []
        assert document["schema"] == hotspots.SCHEMA
        assert document["samples"] == 10

    def test_stage_sample_attribution(self):
        document = make_document()
        by_name = {s["name"]: s for s in document["stages"]}
        assert by_name["mcf"]["samples"] == 8
        assert by_name["build"]["samples"] == 2

    def test_functions_ranked_by_self_time(self):
        functions = make_document()["functions"]
        assert functions[0]["key"] == "mod.dijkstra"
        assert functions[0]["spans"] == {
            "hotspots.campaign/hotspots.mcf": 8}

    def test_validate_rejects_unsorted_functions(self):
        document = make_document()
        document["functions"].reverse()
        assert any("not sorted" in p
                   for p in hotspots.validate_document(document))

    def test_validate_rejects_bad_schema_and_folded(self):
        document = make_document()
        document["schema"] = "flattree.hotspots/999"
        document["folded"] = ["no-weight-here"]
        problems = hotspots.validate_document(document)
        assert any("'schema'" in p for p in problems)
        assert any("folded" in p for p in problems)

    def test_write_scrubs_nan_and_sorts_keys(self, tmp_path):
        document = make_document()
        document["duration_s"] = 2.0
        document["environment"]["cpu_ghz"] = float("nan")
        path = tmp_path / "HOTSPOTS_1.json"
        hotspots.write_document(path, document)
        text = path.read_text(encoding="utf-8")
        assert "NaN" not in text
        decoded = json.loads(text)
        assert decoded["environment"]["cpu_ghz"] is None
        assert list(decoded) == sorted(decoded)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "HOTSPOTS_1.json"
        hotspots.write_document(path, make_document())
        loaded = hotspots.load_document(path)
        assert loaded["samples"] == 10
        assert len(loaded["folded"]) == 2

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "HOTSPOTS_1.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(ReproError, match="not valid JSON"):
            hotspots.load_document(path)
        path.write_text(json.dumps({"schema": "nope"}), encoding="utf-8")
        with pytest.raises(ReproError, match="hotspot schema"):
            hotspots.load_document(path)

    def test_write_refuses_invalid(self, tmp_path):
        document = make_document()
        document["stages"] = []
        with pytest.raises(ReproError, match="refusing to write"):
            hotspots.write_document(tmp_path / "HOTSPOTS_1.json", document)

    def test_render_mentions_stages_and_functions(self):
        text = hotspots.render_document(make_document())
        assert "mcf" in text
        assert "mod.dijkstra" in text
        assert "[hotspots.campaign/hotspots.mcf]" in text
