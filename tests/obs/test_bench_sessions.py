"""Sequence discovery and I/O for the numbered BENCH_ session files."""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.obs import bench


def touch(tmp_path, name):
    (tmp_path / name).write_text("{}\n", encoding="utf-8")


class TestBenchPaths:
    def names(self, tmp_path):
        return [p.name for p in bench.session_paths(tmp_path)]

    def test_empty_directory(self, tmp_path):
        assert bench.session_paths(tmp_path) == []

    def test_sorted_numerically_not_lexically(self, tmp_path):
        for seq in (10, 2, 1):
            touch(tmp_path, f"BENCH_{seq}.json")
        assert self.names(tmp_path) == [
            f"BENCH_{seq}.json" for seq in (1, 2, 10)]

    def test_gaps_in_the_sequence_survive(self, tmp_path):
        touch(tmp_path, "BENCH_1.json")
        touch(tmp_path, "BENCH_3.json")
        assert self.names(tmp_path) == ["BENCH_1.json", "BENCH_3.json"]

    def test_free_form_tags_ignored(self, tmp_path):
        for name in ("1.json", "smoke.json", ".json", "1.json.bak"):
            touch(tmp_path, f"BENCH_{name}")
        assert self.names(tmp_path) == ["BENCH_1.json"]


class TestNextBenchPath:
    def next_name(self, tmp_path):
        return bench.next_session_path(tmp_path).name

    def test_first_slot_is_one(self, tmp_path):
        assert self.next_name(tmp_path) == "BENCH_1.json"

    def test_next_is_max_plus_one_even_with_gaps(self, tmp_path):
        touch(tmp_path, "BENCH_1.json")
        touch(tmp_path, "BENCH_3.json")
        assert self.next_name(tmp_path) == "BENCH_4.json"

    def test_tags_never_claim_a_slot(self, tmp_path):
        touch(tmp_path, "BENCH_smoke.json")
        assert self.next_name(tmp_path) == "BENCH_1.json"


class TestLoadSession:
    def test_rejects_non_object(self, tmp_path):
        path = tmp_path / "BENCH_1.json"
        path.write_text(json.dumps([1, 2]), encoding="utf-8")
        with pytest.raises(ReproError, match="not a JSON object"):
            bench.load_session(path)
