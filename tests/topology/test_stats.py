"""Unit tests for graph metrics (path lengths, spreads, profiles)."""

from __future__ import annotations

import pytest

from repro.errors import TopologyError
from repro.topology.elements import Network, PlainSwitch
from repro.topology.stats import (
    average_server_path_length,
    average_within_group_path_length,
    degree_histogram,
    is_connected,
    link_kind_profile,
    server_counts_by_kind,
    server_spread,
    switch_distances,
)


class TestSwitchDistances:
    def test_triangle(self, triangle):
        dist, idx = switch_distances(triangle)
        nodes = list(idx)
        for a in nodes:
            for b in nodes:
                expected = 0 if a == b else 1
                assert dist[idx[a], idx[b]] == expected

    def test_path(self, path3):
        dist, idx = switch_distances(path3)
        assert dist[idx[PlainSwitch(0)], idx[PlainSwitch(2)]] == 2

    def test_disconnected_inf(self):
        net = Network("disc")
        a, b = PlainSwitch(0), PlainSwitch(1)
        net.add_switch(a, 2)
        net.add_switch(b, 2)
        dist, idx = switch_distances(net)
        assert dist[idx[a], idx[b]] == float("inf")
        assert not is_connected(net)


class TestAveragePathLength:
    def test_path3(self, path3):
        # One pair, distance 2 switch hops + 2 server hops.
        assert average_server_path_length(path3) == pytest.approx(4.0)

    def test_same_switch_pair_is_two_hops(self):
        net = Network("one")
        a = PlainSwitch(0)
        net.add_switch(a, 4)
        net.add_server(0, a)
        net.add_server(1, a)
        assert average_server_path_length(net) == pytest.approx(2.0)

    def test_mixture(self, triangle):
        # 3 servers, all pairs at switch distance 1 -> 3 hops each.
        assert average_server_path_length(triangle) == pytest.approx(3.0)

    def test_needs_two_servers(self):
        net = Network("t")
        a = PlainSwitch(0)
        net.add_switch(a, 2)
        net.add_server(0, a)
        with pytest.raises(TopologyError):
            average_server_path_length(net)

    def test_disconnected_servers_raise(self):
        net = Network("disc")
        a, b = PlainSwitch(0), PlainSwitch(1)
        net.add_switch(a, 2)
        net.add_switch(b, 2)
        net.add_server(0, a)
        net.add_server(1, b)
        with pytest.raises(TopologyError):
            average_server_path_length(net)

    def test_distances_cached_until_the_fabric_changes(self, triangle):
        dist, idx = switch_distances(triangle)
        assert average_server_path_length(triangle) == pytest.approx(3.0)
        assert switch_distances(triangle)[0] is dist
        assert not dist.flags.writeable
        triangle.add_server(3, PlainSwitch(0))
        assert switch_distances(triangle)[0] is dist
        a, b = PlainSwitch(0), PlainSwitch(1)
        triangle.remove_cable(a, b)
        fresh, _idx = switch_distances(triangle)
        assert fresh is not dist
        assert dist[idx[a], idx[b]] == 1
        assert fresh[idx[a], idx[b]] == 2


class TestWithinGroups:
    def test_groups_restrict_pairs(self, path3):
        # Both servers in one group -> same as global APL.
        value = average_within_group_path_length(path3, [[0, 1]])
        assert value == pytest.approx(4.0)

    def test_singleton_groups_rejected(self, path3):
        with pytest.raises(TopologyError):
            average_within_group_path_length(path3, [[0], [1]])

    def test_group_aggregation_weights_by_pairs(self, triangle):
        # Group A has a same-switch-free pair at 3 hops; group B has the
        # pair (0, 2), also 3 hops.
        value = average_within_group_path_length(triangle, [[0, 1], [0, 2]])
        assert value == pytest.approx(3.0)


class TestSpreadAndProfiles:
    def test_server_counts_by_kind(self, fat8):
        assert server_counts_by_kind(fat8) == {"edge": 128}

    def test_server_spread(self, fat8):
        assert server_spread(fat8, "edge") == (4, 4)
        assert server_spread(fat8, "core") == (0, 0)

    def test_spread_unknown_kind(self, fat8):
        with pytest.raises(TopologyError):
            server_spread(fat8, "nope")

    def test_link_kind_profile_fat_tree(self, fat8):
        from repro.topology.elements import AggSwitch, CoreSwitch, EdgeSwitch

        assert link_kind_profile(fat8, EdgeSwitch(0, 0)) == {"agg": 4}
        assert link_kind_profile(fat8, AggSwitch(0, 0)) == {
            "edge": 4,
            "core": 4,
        }
        assert link_kind_profile(fat8, CoreSwitch(0)) == {"agg": 8}

    def test_degree_histogram(self, fat8):
        hist = degree_histogram(fat8)
        # 32 edge switches at fabric degree 4 (servers excluded);
        # 32 aggs + 16 cores at degree 8.
        assert hist == {4: 32, 8: 48}
