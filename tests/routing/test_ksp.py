"""Unit tests for k-shortest-paths routing."""

from __future__ import annotations

import heapq
import random
from collections import deque

import pytest

from repro import obs
from repro.core.conversion import Mode, convert
from repro.core.design import FlatTreeDesign
from repro.core.flattree import FlatTree
from repro.errors import RoutingError
from repro.obs.sinks import MemorySink
from repro.routing import ksp
from repro.routing.ksp import (
    DEFAULT_K,
    build_ksp_table,
    k_shortest_paths,
    path_stretch,
)
from repro.routing.sdn import SdnProgram
from repro.topology.elements import EdgeSwitch, PlainSwitch
from repro.topology.fattree import build_fat_tree


class TestKShortestPaths:
    def test_sorted_by_length(self, global8):
        switches = list(global8.switches())
        paths = k_shortest_paths(global8, switches[0], switches[-1])
        hops = [p.hops for p in paths]
        assert hops == sorted(hops)
        assert len(paths) == DEFAULT_K

    def test_paths_unique(self, global8):
        switches = list(global8.switches())
        paths = k_shortest_paths(global8, switches[0], switches[-1], k=6)
        assert len({p.nodes for p in paths}) == 6

    def test_paths_loop_free_and_valid(self, global8):
        switches = list(global8.switches())
        for path in k_shortest_paths(global8, switches[3], switches[-3], k=4):
            assert len(set(path.nodes)) == len(path.nodes)
            path.validate_on(global8)

    def test_fewer_paths_than_k(self, path3):
        paths = k_shortest_paths(path3, PlainSwitch(0), PlainSwitch(2), k=5)
        assert len(paths) == 1

    def test_k_validation(self, path3):
        with pytest.raises(RoutingError):
            k_shortest_paths(path3, PlainSwitch(0), PlainSwitch(2), k=0)

    def test_same_switch(self, path3):
        paths = k_shortest_paths(path3, PlainSwitch(0), PlainSwitch(0))
        assert paths[0].hops == 0

    def test_unreachable_raises(self, path3):
        with pytest.raises(RoutingError):
            k_shortest_paths(path3, PlainSwitch(0), PlainSwitch(77))

    def test_same_unknown_switch_raises(self, path3):
        with pytest.raises(RoutingError, match="no path"):
            k_shortest_paths(path3, PlainSwitch(77), PlainSwitch(77))


class TestKspTable:
    def test_builds_and_validates(self, triangle):
        pairs = [(PlainSwitch(0), PlainSwitch(1))]
        table = build_ksp_table(triangle, pairs, k=3)
        paths = table.paths(PlainSwitch(0), PlainSwitch(1))
        assert [p.hops for p in paths] == [1, 2]
        table.validate_on(triangle)

    def test_repeated_pair_keeps_one_path_set(self):
        """A pair listed twice holds its k paths once and compiles to the
        same SDN rules as the pair listed once."""
        net = build_fat_tree(4)
        pair = (EdgeSwitch(0, 0), EdgeSwitch(1, 0))
        once = build_ksp_table(net, [pair], k=4)
        twice = build_ksp_table(net, [pair, pair], k=4)
        assert twice.paths(*pair) == once.paths(*pair)
        assert len(twice) == len(once) == 4
        assert (SdnProgram.compile(twice).rule_count()
                == SdnProgram.compile(once).rule_count() == 16)

    def test_repeated_pair_counts_a_memo_hit(self, triangle):
        pair = (PlainSwitch(0), PlainSwitch(1))
        obs.disable()
        obs.registry.reset()
        obs.enable(MemorySink())
        try:
            build_ksp_table(triangle, [pair, pair, pair], k=2)
            hits = obs.registry.snapshot()["routing.ksp.memo_hits"]
        finally:
            obs.disable()
            obs.registry.reset()
        assert hits["value"] == 2


class TestStretch:
    def test_stretch_ratio(self, triangle):
        paths = k_shortest_paths(triangle, PlainSwitch(0), PlainSwitch(1), k=2)
        assert path_stretch(paths) == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(RoutingError):
            path_stretch([])


class TestLawlerRule:
    """A path first queued by the spur search at index ``i`` of its
    parent starts its own spur loop at ``i``."""

    def test_spur_loop_starts_where_the_path_was_found(self, monkeypatch):
        log = []
        bfs = ksp._bidirectional_bfs

        def spur(neighbors, s, *args):
            log.append(("spur", s))
            return bfs(neighbors, s, *args)

        def push(queue, entry):
            log.append(("push", entry))
            heapq.heappush(queue, entry)

        def pop(queue):
            entry = heapq.heappop(queue)
            log.append(("pop", entry))
            return entry

        monkeypatch.setattr(ksp, "_bidirectional_bfs", spur)
        monkeypatch.setattr(ksp, "heappush", push)
        monkeypatch.setattr(ksp, "heappop", pop)
        net = convert(FlatTree(FlatTreeDesign.for_fat_tree(6)),
                      Mode.GLOBAL_RANDOM)
        ids = net.link_index().switch_ids
        switches = sorted(net.switches(), key=repr)
        rng = random.Random(3)
        late_starts = 0
        for _ in range(40):
            src, dst = rng.sample(switches, 2)
            log.clear()
            paths = k_shortest_paths(net, src, dst, k=8)
            first = tuple(ids[v] for v in paths[0].nodes)
            assert log[0] == ("spur", first[0])
            expected = deque(first[:-1])
            found = None
            for kind, item in log[1:]:
                if kind == "spur":
                    assert item == expected.popleft()
                    found = item
                elif kind == "push":
                    _length, _order, i, path = item
                    assert path[i - 1] == found
                else:
                    assert not expected
                    _length, _order, i, path = item
                    expected = deque(path[i - 1:-1])
                    late_starts += i > 1
            # No spur loop runs after the k-th path.
            assert not expected or len(paths) == 8
        assert late_starts > 0
