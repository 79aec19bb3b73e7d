"""The array event loop against the dict event loop it replaced.

``simulator_oracle.DictFlowSimulator`` keeps the active flows in dicts
and hands the allocator a fresh list at every recompute.
``FlowSimulator`` keeps one flow set and array state from event to
event and does the same float operations in the same order, so whole
runs must agree exactly (``==``): the same completions in the same
order, at the same finish times, on the same paths; the same failed
flows with the same remaining sizes; the same reroute count; and the
same allocations handed to a monitor.  The simulator admits elastic
flows only; demand ceilings are covered by ``test_flowset.py``.
"""

from __future__ import annotations

import random
from collections import defaultdict
from functools import lru_cache
from typing import List

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.conversion import Mode, convert
from repro.core.design import FlatTreeDesign
from repro.core.flattree import FlatTree
from repro.errors import ReproError
from repro.flowsim.simulator import FlowSimulator, FlowSpec, TopologyEvent
from repro.routing.base import Path
from repro.selfheal.regret import ksp_router
from repro.topology.elements import Network, PlainSwitch
from simulator_oracle import DictFlowSimulator
from test_fairshare_oracle import line, with_parallel_cables


@lru_cache(maxsize=None)
def fabric(k: int, mode: Mode) -> Network:
    return convert(FlatTree(FlatTreeDesign.for_fat_tree(k)), mode)


class Recorder:
    """A monitor that records every allocation and rebind it sees."""

    def __init__(self) -> None:
        self.calls: List[tuple] = []

    def on_allocation(self, t, link_rates, link_flows) -> None:
        self.calls.append((t, link_rates, link_flows))

    def rebind(self, net) -> None:
        self.calls.append(("rebind", net.name))


def assert_same_runs(nets, router_for, flows, events=()) -> None:
    """Run both simulators, each on its own of the two ``nets``."""
    monitors = Recorder(), Recorder()
    kernel = FlowSimulator(nets[0], router_for(nets[0]), monitor=monitors[0])
    oracle = DictFlowSimulator(nets[1], router_for(nets[1]),
                               monitor=monitors[1])
    got = kernel.run(flows, events=events)
    want = oracle.run(flows, events=events)
    assert got.completed == want.completed
    assert got.failed == want.failed
    assert got.rerouted == want.rerouted
    assert monitors[0].calls == monitors[1].calls


@given(
    k=st.sampled_from((4, 6)),
    mode=st.sampled_from(tuple(Mode)),
    seed=st.integers(min_value=0, max_value=10_000),
    nflows=st.integers(min_value=1, max_value=40),
    local=st.sampled_from((0.0, 0.2)),
    burst=st.sampled_from((0.0, 0.3)),
    parallel=st.booleans(),
    cuts=st.integers(min_value=0, max_value=8),
    strand=st.booleans(),
    restore=st.booleans(),
)
def test_simulation_equals_dict_loop(k, mode, seed, nflows, local, burst,
                                     parallel, cuts, strand, restore):
    """Mid-run cable cuts (whole or one cable of a parallel bundle),
    stranded servers and a restore; some flows stay on one switch and
    some arrive together."""
    rng = random.Random(seed)
    net = fabric(k, mode)
    if parallel:
        net = with_parallel_cables(net, rng, 12)
    servers = sorted(net.servers())
    neighbors = defaultdict(list)
    for server in servers:
        neighbors[net.server_switch(server)].append(server)
    shared = [group for group in neighbors.values() if len(group) > 1]
    degraded = net.copy()
    for u, v, cap in rng.sample(sorted(degraded.edge_list(), key=repr),
                                cuts):
        degraded.remove_cable(u, v, capacity=cap / net.fabric[u][v]["mult"])
    if strand:
        for server in rng.sample(servers, 3):
            degraded.detach_server(server)
    # Admission does not absorb routing errors, so flows arriving after
    # the cut only join pairs the degraded fabric still connects.
    t_cut = rng.uniform(0.1, 3.0)
    probe = ksp_router(degraded)
    flows, now = [], 0.0
    for fid in range(nflows):
        if rng.random() >= burst:
            now += rng.expovariate(8.0)
        if shared and rng.random() < local:
            src, dst = rng.sample(rng.choice(shared), 2)
        else:
            src, dst = rng.sample(servers, 2)
        if now >= t_cut:
            try:
                probe(src, dst, fid)
            except ReproError:
                continue
        flows.append(FlowSpec(fid, src, dst, rng.choice((0.1, 0.5, 2.0)),
                              now))
    if not flows:
        return
    events = [TopologyEvent(t_cut, degraded, ksp_router(degraded))]
    if restore:
        events.append(TopologyEvent(t_cut + 0.5, net, ksp_router(net)))
    assert_same_runs((net, net), ksp_router, flows, events)


@pytest.mark.parametrize("seed", range(4))
def test_reroute_heavy_run_equals_dict_loop(seed):
    """40 overlapping flows lose 8 of a k=4 fabric's cables and 3 of its
    servers at once: rerouted flows keep their admission position,
    failed ones leave."""
    net = fabric(4, Mode.GLOBAL_RANDOM)
    rng = random.Random(seed)
    servers = sorted(net.servers())
    flows = [FlowSpec(fid, *rng.sample(servers, 2),
                      size=rng.choice((0.1, 0.5, 2.0)), arrival=0.005 * fid)
             for fid in range(40)]
    degraded = net.copy()
    for u, v, _cap in rng.sample(sorted(degraded.edge_list(), key=repr), 8):
        degraded.remove_cable(u, v)
    for server in rng.sample(servers, 3):
        degraded.detach_server(server)
    events = [TopologyEvent(0.3, degraded, ksp_router(degraded)),
              TopologyEvent(0.6, net, ksp_router(net))]
    assert_same_runs((net, net), ksp_router, flows, events)
    run = FlowSimulator(net, ksp_router(net)).run(flows, events=events)
    assert run.rerouted > 0 and run.failed


def test_fabric_edited_in_place_mid_run():
    """A cable added under a running simulation doubles the shared
    bottleneck: the kept set is rebuilt over the edited fabric, as the
    dict loop regathers over it."""

    def router_for(net: Network):
        def route(src, dst, fid):
            if fid == 2:
                net.add_cable(PlainSwitch(0), PlainSwitch(1))
            return Path((PlainSwitch(src), PlainSwitch(1), PlainSwitch(dst)))
        return route

    def fresh() -> Network:
        net = line(4)
        net.add_cable(PlainSwitch(1), PlainSwitch(3))
        return net

    flows = [FlowSpec(1, 0, 2, 1.0), FlowSpec(2, 0, 3, 1.0, arrival=0.5),
             FlowSpec(3, 0, 2, 0.5, arrival=0.75)]
    assert_same_runs((fresh(), fresh()), router_for, flows)
