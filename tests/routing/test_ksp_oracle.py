"""The Yen kernel of ``repro.routing.ksp`` against networkx.

:func:`networkx.shortest_simple_paths` is the oracle: on every fabric
the kernel must return the same paths in the same order, and raise
:class:`RoutingError` where networkx finds no path.  Fabrics lose
random cables, and some lost cables come back, which moves them to the
end of their switches' neighbor order: the kernel must follow the
fabric's order, not a sorted one.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import islice
from typing import List, Optional

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.conversion import Mode, convert
from repro.core.design import FlatTreeDesign
from repro.core.flattree import FlatTree
from repro.core.zones import proportional_layout
from repro.errors import RoutingError
from repro.routing.base import Path
from repro.routing.ksp import k_shortest_paths
from repro.topology.elements import Network, PlainSwitch
from repro.topology.fattree import build_fat_tree
from repro.topology.jellyfish import build_jellyfish_like_fat_tree

TOPOLOGIES = ("fat-tree", "jellyfish",
              *(f"flat-tree {mode.value}" for mode in Mode),
              "flat-tree hybrid")


@lru_cache(maxsize=None)
def network(kind: str, k: int) -> Network:
    if kind == "fat-tree":
        return build_fat_tree(k)
    if kind == "jellyfish":
        return build_jellyfish_like_fat_tree(k, random.Random(k))
    ft = FlatTree(FlatTreeDesign.for_fat_tree(k))
    if kind == "flat-tree hybrid":
        layout = proportional_layout(ft.params, 0.5)
        return convert(ft, pod_modes=layout.pod_modes())
    return convert(ft, Mode(kind.split(" ", 1)[1]))


def oracle(net: Network, src, dst, k: int) -> Optional[List[Path]]:
    """networkx's first ``k`` paths, or None when none exists."""
    try:
        return [Path(tuple(nodes)) for nodes in
                islice(nx.shortest_simple_paths(net.fabric, src, dst), k)]
    except nx.NetworkXNoPath:
        return None


def damaged(net: Network, rng: random.Random, dead: float,
            revived: float) -> Network:
    """A copy of ``net`` without a ``dead`` share of its cables, of which
    a ``revived`` share is then plugged back in."""
    clone = net.copy()
    cables = sorted(clone.edge_list(), key=repr)
    cut = rng.sample(cables, round(dead * len(cables)))
    for u, v, cap in cut:
        clone.remove_cable(u, v, capacity=cap / net.fabric[u][v]["mult"])
    for u, v, cap in rng.sample(cut, round(revived * len(cut))):
        clone.add_cable(u, v, capacity=cap / net.fabric[u][v]["mult"])
    return clone


@given(
    kind=st.sampled_from(TOPOLOGIES),
    k=st.sampled_from((4, 6)),
    paths=st.sampled_from((1, 3, 8, 16)),
    dead=st.sampled_from((0.0, 0.1, 0.25, 0.5)),
    revived=st.sampled_from((0.0, 0.5)),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_same_paths_as_networkx(kind, k, paths, dead, revived, seed):
    rng = random.Random(seed)
    net = damaged(network(kind, k), rng, dead, revived)
    switches = sorted(net.switches(), key=repr)
    for _ in range(6):
        src, dst = rng.sample(switches, 2)
        want = oracle(net, src, dst, paths)
        if want is None:
            with pytest.raises(RoutingError, match="no path"):
                k_shortest_paths(net, src, dst, k=paths)
        else:
            assert k_shortest_paths(net, src, dst, k=paths) == want


@pytest.mark.parametrize("kind", TOPOLOGIES)
def test_every_pair_at_k4(kind):
    """All ordered switch pairs of each k=4 fabric, 8 paths each."""
    net = network(kind, 4)
    switches = list(net.switches())
    for src in switches:
        for dst in switches:
            if src != dst:
                got = k_shortest_paths(net, src, dst, k=8)
                assert got == oracle(net, src, dst, 8), (src, dst)


def test_disconnected_fabric_raises():
    """Two components: no pair across them has a path."""
    net = Network("two islands")
    nodes = [PlainSwitch(i) for i in range(4)]
    for node in nodes:
        net.add_switch(node, 4)
    net.add_cable(nodes[0], nodes[1])
    net.add_cable(nodes[2], nodes[3])
    assert oracle(net, nodes[0], nodes[3], 8) is None
    with pytest.raises(RoutingError, match="no path"):
        k_shortest_paths(net, nodes[0], nodes[3])
    assert k_shortest_paths(net, nodes[2], nodes[3]) == [
        Path((nodes[2], nodes[3]))]


# ----------------------------------------------------------------------
# the link index cached on the network
# ----------------------------------------------------------------------
def p(*indices: int) -> Path:
    return Path(tuple(PlainSwitch(i) for i in indices))


class TestAdjacencyIndexCache:
    """KSP over the neighbor lists of ``Network.link_index()``.

    On ``path3``, the switch line 0 - 1 - 2.
    """

    def test_add_switch_between_calls_changes_the_answer(self, path3):
        net = path3
        new = PlainSwitch(3)
        with pytest.raises(RoutingError):
            k_shortest_paths(net, new, new)
        with pytest.raises(RoutingError):
            k_shortest_paths(net, PlainSwitch(0), new)
        net.add_switch(new, 4)
        assert k_shortest_paths(net, new, new) == [p(3)]
        with pytest.raises(RoutingError, match="no path"):
            k_shortest_paths(net, PlainSwitch(0), new)
        net.add_cable(PlainSwitch(2), new)
        assert k_shortest_paths(net, PlainSwitch(0), new) == [p(0, 1, 2, 3)]

    def test_add_cable_between_calls_changes_the_answer(self, path3):
        net = path3
        assert k_shortest_paths(net, PlainSwitch(0), PlainSwitch(2)) == [
            p(0, 1, 2)]
        net.add_cable(PlainSwitch(0), PlainSwitch(2))
        assert k_shortest_paths(net, PlainSwitch(0), PlainSwitch(2)) == [
            p(0, 2), p(0, 1, 2)]

    def test_remove_cable_between_calls_changes_the_answer(self, path3):
        net = path3
        net.add_cable(PlainSwitch(0), PlainSwitch(2))
        assert k_shortest_paths(net, PlainSwitch(0), PlainSwitch(1)) == [
            p(0, 1), p(0, 2, 1)]
        net.remove_cable(PlainSwitch(0), PlainSwitch(1))
        assert k_shortest_paths(net, PlainSwitch(0), PlainSwitch(1)) == [
            p(0, 2, 1)]
        net.remove_cable(PlainSwitch(2), PlainSwitch(1))
        with pytest.raises(RoutingError, match="no path"):
            k_shortest_paths(net, PlainSwitch(0), PlainSwitch(1))

    def test_index_kept_while_the_fabric_is_unchanged(self, path3):
        net = path3
        index = net.link_index()
        k_shortest_paths(net, PlainSwitch(0), PlainSwitch(2))
        net.add_server(2, PlainSwitch(1))
        assert net.link_index() is index
        assert index.neighbors == [(1,), (0, 2), (1,)]

    def test_neighbors_follow_the_fabric_order(self):
        """A re-plugged cable goes last in its switches' neighbor order,
        and so the kernel's ties break as networkx's do."""
        net = Network("square")
        nodes = [PlainSwitch(i) for i in range(4)]
        for node in nodes:
            net.add_switch(node, 4)
        for a, b in ((0, 1), (0, 2), (1, 3), (2, 3)):
            net.add_cable(nodes[a], nodes[b])
        assert k_shortest_paths(net, nodes[0], nodes[3], k=1) == [
            p(0, 1, 3)]
        net.remove_cable(nodes[1], nodes[3])
        net.add_cable(nodes[1], nodes[3])
        assert net.link_index().neighbors[3] == (2, 1)
        got = k_shortest_paths(net, nodes[0], nodes[3], k=1)
        assert got == oracle(net, nodes[0], nodes[3], 1) == [p(0, 2, 3)]
