"""``Network.link_index()``: the one integer form of a fabric.

Every view, and ``edge_list()`` itself, is checked against a fresh
derivation from networkx's own walks of ``fabric``, written here the
way the flow LPs, the path-length metrics, the max-flow helpers and
KSP once each walked the fabric themselves.  Fabrics lose random
cables, get some back (a re-plugged cable moves to the end of its
switches' neighbor order) and gain a switch, and each of those calls
must drop the index while a server move keeps it.
"""

from __future__ import annotations

import gc
import random
import weakref
from functools import lru_cache

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conversion import Mode, convert
from repro.core.design import FlatTreeDesign
from repro.core.flattree import FlatTree
from repro.core.multistage import build_two_stage_flat_tree
from repro.experiments.degradation import degrade
from repro.mcf.commodities import Commodity, build_flow_problem
from repro.topology.elements import Network, PlainSwitch
from repro.topology.export import to_dot, to_json_dict
from repro.topology.fattree import build_fat_tree
from repro.topology.jellyfish import build_jellyfish_like_fat_tree
from repro.topology.validate import audit

TOPOLOGIES = ("fat-tree", "jellyfish",
              *(f"flat-tree {mode.value}" for mode in Mode))


@lru_cache(maxsize=None)
def network(kind: str, k: int) -> Network:
    if kind == "fat-tree":
        return build_fat_tree(k)
    if kind == "jellyfish":
        return build_jellyfish_like_fat_tree(k, random.Random(k))
    ft = FlatTree(FlatTreeDesign.for_fat_tree(k))
    return convert(ft, Mode(kind.split(" ", 1)[1]))


def assert_views_match_the_fabric(net: Network) -> None:
    ids = {s: i for i, s in enumerate(net.switches())}
    tail, head, capacity, link_ids = [], [], [], {}
    edges = [(u, v, data["capacity"])
             for u, v, data in net.fabric.edges(data=True)]
    assert net.edge_list() == edges
    assert net.num_cables == sum(mult for _u, _v, mult
                                 in net.fabric.edges(data="mult"))
    for u, v, cap in edges:
        link_ids[(u, v)] = len(tail)
        link_ids[(v, u)] = len(tail) + 1
        tail += (ids[u], ids[v])
        head += (ids[v], ids[u])
        capacity += (cap, cap)
    n = len(ids)
    distances = np.full((n, n), np.inf)
    for s, lengths in nx.all_pairs_shortest_path_length(net.fabric):
        for t, hops in lengths.items():
            distances[ids[s], ids[t]] = hops

    index = net.link_index()
    assert list(index.switch_ids.items()) == list(ids.items())
    assert index.nodes == list(ids)
    assert index.neighbors == [tuple(ids[w] for w in net.fabric[s])
                               for s in ids]
    for got, want, dtype in zip(index.links, (tail, head, capacity),
                                (np.int32, np.int32, np.float64)):
        assert got.dtype == dtype and not got.flags.writeable
        assert got.tobytes() == np.array(want, dtype=dtype).tobytes()
    assert list(index.link_ids.items()) == list(link_ids.items())
    for hop, link in link_ids.items():
        assert index.path_links(hop).tolist() == [link]
    adjacency = index.adjacency().toarray()
    assert adjacency.dtype == np.int8
    assert np.array_equal(adjacency, nx.to_numpy_array(
        net.fabric, nodelist=list(ids), weight=None, dtype=np.int8))
    assert np.array_equal(index.distances, distances)


def assert_flow_problem_reads_the_links(net: Network,
                                        rng: random.Random) -> None:
    servers = sorted(net.servers())
    pairs = [rng.sample(servers, 2) for _ in range(8)]
    commodities = [Commodity(a, b) for a, b in pairs
                   if net.server_switch(a) != net.server_switch(b)]
    if not commodities:
        return
    problem = build_flow_problem(net, commodities)
    links = net.link_index().links
    assert problem.num_nodes == net.num_switches
    for arcs, link in zip((problem.arc_src, problem.arc_dst,
                           problem.arc_cap), links):
        assert arcs.dtype == link.dtype
        assert arcs.tobytes() == link.tobytes()


@settings(deadline=None, max_examples=40)
@given(
    kind=st.sampled_from(TOPOLOGIES),
    k=st.sampled_from((4, 6)),
    dead=st.sampled_from((0.0, 0.1, 0.3)),
    revived=st.sampled_from((0.0, 0.5, 1.0)),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_views_match_a_fresh_derivation(kind, k, dead, revived, seed):
    rng = random.Random(seed)
    net = network(kind, k).copy()
    assert_views_match_the_fabric(net)

    cables = sorted(net.edge_list(), key=repr)
    cut = [(u, v, cap / net.fabric[u][v]["mult"])
           for u, v, cap in rng.sample(cables, round(dead * len(cables)))]
    replug = rng.sample(cut, round(revived * len(cut)))
    for u, v, cap in cut:
        index = net.link_index()
        net.remove_cable(u, v, capacity=cap)
        assert net.link_index() is not index
    for u, v, cap in replug:
        index = net.link_index()
        net.add_cable(u, v, capacity=cap)
        assert net.link_index() is not index

    index = net.link_index()
    new = PlainSwitch(-1)
    net.add_switch(new, 4)
    assert net.link_index() is not index
    free = [s for s in net.switches() if s != new and net.ports_free(s)]
    if free:
        index = net.link_index()
        net.add_cable(rng.choice(free), new)
        assert net.link_index() is not index

    index = net.link_index()
    server = max(net.servers()) + 1
    net.add_server(server, new)
    net.detach_server(server)
    assert net.link_index() is index
    assert_views_match_the_fabric(net)
    assert_flow_problem_reads_the_links(net, rng)


def _build_every_view(net: Network) -> None:
    index = net.link_index()
    for view in ("switch_ids", "nodes", "neighbors", "links", "link_ids",
                 "distances"):
        getattr(index, view)
    u, v, _cap = net.edge_list()[0]
    index.path_links((u, v))
    index.adjacency()


def test_a_network_is_freed_without_the_cycle_collector():
    """The index holds the fabric graph, not its network, and the edge
    reads never touch networkx's cached edge view, which holds its
    graph: a network no longer referenced is freed at once, fabric,
    index and views with it.  Jellyfish seeds 0 and 4 at k=4 run the
    builder's two repair swaps, which walk every edge."""
    net = convert(FlatTree(FlatTreeDesign.for_fat_tree(4)),
                  Mode.GLOBAL_RANDOM)
    _build_every_view(net)
    assert net.copy().num_cables == net.num_cables
    jellyfish = [build_jellyfish_like_fat_tree(4, random.Random(seed))
                 for seed in (0, 4)]
    alive = [weakref.ref(net), weakref.ref(net.fabric),
             *(weakref.ref(j.fabric) for j in jellyfish)]
    gc.disable()
    try:
        del net, jellyfish
        assert [ref() for ref in alive] == [None] * len(alive)
    finally:
        gc.enable()


def test_builders_and_readers_leave_no_fabric_behind():
    """A two-stage flat-tree build walks two temporary fabrics, and the
    DOT and JSON writers, ``degrade`` and ``audit`` walk every cable;
    with the cycle collector off, none of them may leave a graph alive
    once its network is gone."""

    def graphs() -> int:
        return sum(isinstance(obj, nx.Graph) for obj in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = graphs()
        net = build_two_stage_flat_tree(8, 4)
        fabric = weakref.ref(net.fabric)
        to_dot(net)
        to_json_dict(net)
        assert degrade(net, 0.1, random.Random(0)).num_cables < net.num_cables
        assert audit(net).ok
        del net
        assert fabric() is None
        assert graphs() == before
    finally:
        gc.enable()
