"""Unit tests for the fat-tree builder."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.errors import TopologyError
from repro.topology.elements import EdgeSwitch
from repro.topology.fattree import build_fat_tree, fat_tree_equipment
from repro.topology.stats import (
    average_server_path_length,
    is_connected,
    switch_distances,
)
from repro.topology.validate import assert_valid


@pytest.mark.parametrize("k", [4, 6, 8, 10])
def test_counts(k):
    net = build_fat_tree(k)
    assert net.num_switches == 5 * k * k // 4
    assert net.num_servers == k**3 // 4
    # k^2/4 edge-agg links per pod x k pods, plus k^2/4 x k/2... total
    # switch-switch cables = pods*d*aggs + cores*k = k^3/4 + k^3/4... the
    # two layers have equal cable counts in a fat-tree.
    assert net.num_cables == 2 * (k**3 // 4)


@pytest.mark.parametrize("k", [4, 6, 8])
def test_every_switch_has_k_ports_fully_used(k):
    net = build_fat_tree(k)
    for s in net.switches():
        assert net.ports(s) == k
        assert net.ports_free(s) == 0


@pytest.mark.parametrize("k", [4, 6, 8])
def test_valid_and_connected(k):
    net = build_fat_tree(k)
    assert_valid(net)
    assert is_connected(net)


def test_rejects_odd_or_small_k():
    with pytest.raises(TopologyError):
        build_fat_tree(3)
    with pytest.raises(TopologyError):
        build_fat_tree(2)


def test_k4_distances_exact():
    """Hand-checkable k=4 distances: 2 same-switch, 4 intra-pod, 6 inter."""
    net = build_fat_tree(4)
    dist, idx = switch_distances(net)
    from repro.topology.elements import AggSwitch, CoreSwitch, EdgeSwitch

    assert dist[idx[EdgeSwitch(0, 0)], idx[EdgeSwitch(0, 1)]] == 2
    assert dist[idx[EdgeSwitch(0, 0)], idx[EdgeSwitch(1, 0)]] == 4
    assert dist[idx[EdgeSwitch(0, 0)], idx[AggSwitch(0, 0)]] == 1
    assert dist[idx[CoreSwitch(0)], idx[EdgeSwitch(2, 1)]] == 2


def test_k4_apl_exact():
    """Closed form for fat-tree(4): all server pairs by hop count.

    16 servers; per server: 1 same-switch (2 hops), 2 same-pod other
    edge (4 hops), 12 cross-pod (6 hops) -> APL = (2 + 8 + 72)/15.
    """
    net = build_fat_tree(4)
    expected = (1 * 2 + 2 * 4 + 12 * 6) / 15
    assert average_server_path_length(net) == pytest.approx(expected)


def _shortest_path_count(net, src, dst):
    return len(list(nx.all_shortest_paths(net.fabric, src, dst)))


@pytest.mark.parametrize("k", [4, 6, 8])
def test_clos_cross_pod_multipath_count(k):
    """§1's Clos premise, rich equal-cost redundancy: (k/2)^2 shortest
    paths between edge switches of different Pods."""
    net = build_fat_tree(k)
    half = k // 2
    edge = EdgeSwitch(0, 0)
    assert _shortest_path_count(net, edge, EdgeSwitch(1, 0)) == half**2
    assert _shortest_path_count(net, edge, EdgeSwitch(k - 1, half - 1)) == half**2


@pytest.mark.parametrize("k", [4, 6, 8])
def test_clos_intra_pod_multipath_count(k):
    """Within a Pod, one shortest path per aggregation switch: k/2."""
    net = build_fat_tree(k)
    assert _shortest_path_count(net, EdgeSwitch(0, 0), EdgeSwitch(0, 1)) == k // 2


def test_apl_grows_toward_6_with_k():
    apl = [average_server_path_length(build_fat_tree(k)) for k in (4, 8, 12)]
    assert apl[0] < apl[1] < apl[2] < 6.0


def test_equipment_helper_matches_builder():
    p = fat_tree_equipment(8)
    net = build_fat_tree(8)
    assert p.num_servers == net.num_servers
    assert p.num_switches == net.num_switches
