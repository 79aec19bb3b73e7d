"""The array water-filling kernel against the dict oracle.

``fairshare_oracle.max_min_fair_rates_oracle`` is progressive filling
over link dicts, one bottleneck link per round.  The kernel freezes
every link at the lowest fair share in one round and sums a round's
rates per link before subtracting them, so its floats may differ from
the oracle's in the last bits: rates must agree to 1e-9 relative.
Errors must agree in type and message.  Whole simulations, with
mid-run topology events, must agree with simulations over the oracle.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from functools import lru_cache
from typing import Dict, List, Optional

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.flowsim.simulator as simulator_module
from fairshare_oracle import max_min_fair_rates_oracle
from repro.core.conversion import Mode, convert
from repro.core.design import FlatTreeDesign
from repro.core.flattree import FlatTree
from repro.errors import ReproError, RoutingError
from repro.flowsim.fairshare import RoutedFlow, max_min_fair_rates
from repro.flowsim.simulator import (
    FlowSimulator,
    FlowSpec,
    SimulationResult,
    TopologyEvent,
)
from repro.routing.base import Path
from repro.routing.ksp import k_shortest_paths
from repro.selfheal.regret import ksp_router
from repro.topology.elements import Network, PlainSwitch
from repro.topology.fattree import build_fat_tree
from repro.topology.jellyfish import build_jellyfish_like_fat_tree

REL = 1e-9
TOPOLOGIES = ("fat-tree", "jellyfish",
              *(f"flat-tree {mode.value}" for mode in Mode))


@lru_cache(maxsize=None)
def network(kind: str, k: int) -> Network:
    if kind == "fat-tree":
        return build_fat_tree(k)
    if kind == "jellyfish":
        return build_jellyfish_like_fat_tree(k, random.Random(k))
    mode = Mode(kind.split(" ", 1)[1])
    return convert(FlatTree(FlatTreeDesign.for_fat_tree(k)), mode)


@lru_cache(maxsize=None)
def candidate_paths(kind: str, k: int, src, dst) -> List[Path]:
    return k_shortest_paths(network(kind, k), src, dst, k=4)


def with_parallel_cables(net: Network, rng: random.Random,
                         extra: int) -> Network:
    """A copy of ``net`` with a second cable, of random capacity, on
    ``extra`` of its bundles (on all of them if there are fewer)."""
    clone = Network(f"{net.name}+parallel")
    for switch in net.switches():
        clone.add_switch(switch, 2 * net.ports(switch))
    edges = sorted(net.edge_list(), key=repr)
    for u, v, cap in edges:
        clone.add_cable(u, v, capacity=cap)
    for u, v, _cap in rng.sample(edges, min(extra, len(edges))):
        clone.add_cable(u, v, capacity=rng.uniform(0.25, 2.0))
    for server in net.servers():
        clone.add_server(server, net.server_switch(server))
    return clone


def assert_same_rates(net: Network, flows: List[RoutedFlow]) -> None:
    got = max_min_fair_rates(net, flows).rates
    want = max_min_fair_rates_oracle(net, flows).rates
    assert got.keys() == want.keys()
    for fid, rate in want.items():
        assert math.isclose(got[fid], rate, rel_tol=REL), (fid, got[fid], rate)


@given(
    kind=st.sampled_from(TOPOLOGIES),
    k=st.sampled_from((4, 6)),
    seed=st.integers(min_value=0, max_value=10_000),
    nflows=st.integers(min_value=1, max_value=80),
    zero_hop=st.sampled_from((0.0, 0.1)),
    capped=st.sampled_from((0.0, 0.3, 1.0)),
    parallel=st.sampled_from((0, 6, 10_000)),
)
def test_kernel_matches_oracle(kind, k, seed, nflows, zero_hop, capped,
                               parallel):
    rng = random.Random(seed)
    net = network(kind, k)
    if parallel:
        net = with_parallel_cables(net, rng, parallel)
    switches = sorted(network(kind, k).switches(), key=repr)
    flows = []
    for fid in range(nflows):
        if rng.random() < zero_hop:
            path = Path((rng.choice(switches),))
        else:
            src, dst = rng.sample(switches, 2)
            path = rng.choice(candidate_paths(kind, k, src, dst))
        demand = rng.uniform(0.01, 1.2) if rng.random() < capped else None
        flows.append(RoutedFlow(fid * 7 + 3, path, demand=demand))
    rng.shuffle(flows)
    assert_same_rates(net, flows)


# ----------------------------------------------------------------------
# edge cases
# ----------------------------------------------------------------------
def p(*indices: int) -> Path:
    return Path(tuple(PlainSwitch(i) for i in indices))


def line(n: int = 3, ports: int = 8) -> Network:
    net = Network("line")
    nodes = [PlainSwitch(i) for i in range(n)]
    for node in nodes:
        net.add_switch(node, ports)
    for a, b in zip(nodes, nodes[1:]):
        net.add_cable(a, b)
    return net


def raised(fn, net, flows) -> Optional[tuple]:
    try:
        fn(net, flows)
    except ReproError as exc:
        return type(exc), str(exc)
    return None


class TestLinkIndexCache:
    def test_add_cable_between_calls_changes_rates(self):
        net = line()
        flows = [RoutedFlow(1, p(0, 1, 2)), RoutedFlow(2, p(0, 1))]
        assert max_min_fair_rates(net, flows).rates == {1: 0.5, 2: 0.5}
        net.add_cable(PlainSwitch(0), PlainSwitch(1))
        assert max_min_fair_rates(net, flows).rates == {1: 1.0, 2: 1.0}
        assert_same_rates(net, flows)

    def test_remove_cable_between_calls_changes_rates(self):
        net = line()
        net.add_cable(PlainSwitch(1), PlainSwitch(2), capacity=3.0)
        flows = [RoutedFlow(1, p(1, 2)), RoutedFlow(2, p(1, 2))]
        assert max_min_fair_rates(net, flows).rates == {1: 2.0, 2: 2.0}
        net.remove_cable(PlainSwitch(1), PlainSwitch(2), capacity=3.0)
        assert max_min_fair_rates(net, flows).rates == {1: 0.5, 2: 0.5}

    def test_removed_link_is_gone_from_the_index(self):
        net = line()
        flows = [RoutedFlow(1, p(0, 1, 2))]
        max_min_fair_rates(net, flows)
        net.remove_cable(PlainSwitch(1), PlainSwitch(2))
        with pytest.raises(RoutingError, match="non-existent link"):
            max_min_fair_rates(net, flows)

    def test_index_kept_while_the_fabric_is_unchanged(self):
        net = line()
        index = net.link_index()
        max_min_fair_rates(net, [RoutedFlow(1, p(0, 1, 2))])
        assert net.link_index() is index
        assert index.links.capacity.size == 4


class TestErrorsMatchOracle:
    def check(self, net, flows, expected_type, match):
        got = raised(max_min_fair_rates, net, flows)
        assert got == raised(max_min_fair_rates_oracle, net, flows)
        assert got is not None and got[0] is expected_type
        assert match in got[1]

    def test_non_positive_capacity(self):
        net = line()
        net.add_cable(PlainSwitch(0), PlainSwitch(2), capacity=0.0)
        self.check(net, [RoutedFlow(1, p(0, 1))], ReproError,
                   "non-positive capacity 0.0")

    def test_missing_link(self):
        self.check(line(), [RoutedFlow(1, p(0, 1)), RoutedFlow(2, p(2, 0))],
                   RoutingError, "path uses non-existent link")

    def test_duplicate_flow_ids(self):
        self.check(line(), [RoutedFlow(1, p(0, 1)), RoutedFlow(1, p(1, 2))],
                   ReproError, "flow ids must be unique")

    def test_capacity_checked_before_paths_before_ids(self):
        bad_link = [RoutedFlow(1, p(0, 2)), RoutedFlow(1, p(0, 1))]
        self.check(line(), bad_link, RoutingError, "non-existent link")
        net = line()
        net.add_cable(PlainSwitch(1), PlainSwitch(2), capacity=-1.0)
        self.check(net, bad_link, ReproError, "non-positive capacity")


class TestSemanticsMatchOracle:
    def check(self, net, flows) -> Dict[int, float]:
        got = max_min_fair_rates(net, flows).rates
        assert got == max_min_fair_rates_oracle(net, flows).rates
        return got

    def test_parallel_cables(self):
        net = line(ports=8)
        net.add_cable(PlainSwitch(0), PlainSwitch(1), capacity=0.5)
        assert net.fabric[PlainSwitch(0)][PlainSwitch(1)]["mult"] == 2
        rates = self.check(net, [RoutedFlow(1, p(0, 1, 2)),
                                 RoutedFlow(2, p(0, 1)),
                                 RoutedFlow(3, p(1, 2))])
        assert rates == {1: 0.5, 2: 1.0, 3: 0.5}

    def test_demand_at_exactly_the_bottleneck_share(self):
        net = line()
        flows = [RoutedFlow(1, p(0, 1), demand=1 / 3),
                 RoutedFlow(2, p(0, 1)), RoutedFlow(3, p(0, 1, 2))]
        rates = self.check(net, flows)
        assert rates[1] == 1 / 3
        assert rates[2] == pytest.approx(1 / 3)
        assert rates[3] == pytest.approx(1 / 3)

    def test_demand_at_the_share_of_a_later_round(self):
        net = line()
        flows = [RoutedFlow(1, p(0, 1)), RoutedFlow(2, p(0, 1)),
                 RoutedFlow(3, p(0, 1)), RoutedFlow(4, p(1, 2), demand=0.5),
                 RoutedFlow(5, p(1, 2))]
        rates = self.check(net, flows)
        assert rates == {1: 1 / 3, 2: 1 / 3, 3: 1 / 3, 4: 0.5, 5: 0.5}

    def test_close_levels_stay_distinct(self):
        """Only links at exactly the lowest share freeze together."""
        net = line()
        net.remove_cable(PlainSwitch(1), PlainSwitch(2))
        net.add_cable(PlainSwitch(1), PlainSwitch(2), capacity=1 + 1e-9)
        flows = [RoutedFlow(fid, p(0, 1)) for fid in range(3)]
        flows += [RoutedFlow(fid, p(1, 2)) for fid in range(3, 6)]
        rates = self.check(net, flows)
        assert {rates[fid] for fid in range(3)} == {1 / 3}
        assert {rates[fid] for fid in range(3, 6)} == {(1 + 1e-9) / 3}

    def test_all_zero_hop_flows(self):
        net = line()
        flows = [RoutedFlow(1, p(0)), RoutedFlow(2, p(2), demand=2.5)]
        assert self.check(net, flows) == {1: math.inf, 2: 2.5}

    def test_no_flows(self):
        assert self.check(line(), []) == {}


# ----------------------------------------------------------------------
# whole simulations
# ----------------------------------------------------------------------
@contextmanager
def oracle_allocator():
    kernel = simulator_module.max_min_fair_rates
    simulator_module.max_min_fair_rates = max_min_fair_rates_oracle
    try:
        yield
    finally:
        simulator_module.max_min_fair_rates = kernel


def assert_same_simulation(a: SimulationResult, b: SimulationResult) -> None:
    assert a.rerouted == b.rerouted
    done_a = {c.spec.flow_id: c for c in a.completed}
    done_b = {c.spec.flow_id: c for c in b.completed}
    assert done_a.keys() == done_b.keys()
    for fid, want in done_b.items():
        got = done_a[fid]
        assert got.path == want.path
        assert math.isclose(got.finish, want.finish, rel_tol=REL,
                            abs_tol=1e-12), fid
    fail_a = [(f.spec.flow_id, f.reason) for f in a.failed]
    assert fail_a == [(f.spec.flow_id, f.reason) for f in b.failed]
    for got, want in zip(a.failed, b.failed):
        assert math.isclose(got.failed_at, want.failed_at, rel_tol=REL)
        assert math.isclose(got.remaining, want.remaining, rel_tol=REL,
                            abs_tol=1e-12)


@given(
    mode=st.sampled_from(tuple(Mode)),
    seed=st.integers(min_value=0, max_value=10_000),
    nflows=st.integers(min_value=2, max_value=40),
    cuts=st.integers(min_value=0, max_value=8),
    strand=st.booleans(),
    restore=st.booleans(),
)
def test_simulation_matches_oracle(mode, seed, nflows, cuts, strand,
                                   restore):
    """Runs with mid-run cable cuts, stranded servers and a restore."""
    rng = random.Random(seed)
    ft = FlatTree(FlatTreeDesign.for_fat_tree(4))
    net = convert(ft, mode)
    servers = sorted(net.servers())
    degraded = net.copy()
    for u, v, _cap in rng.sample(sorted(degraded.edge_list(), key=repr),
                                 cuts):
        degraded.remove_cable(u, v)
    if strand:
        for server in rng.sample(servers, 3):
            degraded.detach_server(server)
    # Admission does not absorb routing errors, so flows arriving after
    # the cut only join pairs the degraded fabric still connects.
    t_cut = rng.uniform(0.1, 3.0)
    probe = ksp_router(degraded)
    flows, now = [], 0.0
    for fid in range(nflows):
        now += rng.expovariate(8.0)
        src, dst = rng.sample(servers, 2)
        if now >= t_cut:
            try:
                probe(src, dst, fid)
            except ReproError:
                continue
        flows.append(FlowSpec(fid, src, dst, rng.choice((0.1, 0.5, 2.0)),
                              now))
    events = [TopologyEvent(t_cut, degraded, ksp_router(degraded))]
    if restore:
        events.append(TopologyEvent(t_cut + 0.5, net, ksp_router(net)))

    def simulate() -> SimulationResult:
        return FlowSimulator(net, ksp_router(net)).run(flows, events=events)

    kernel_run = simulate()
    with oracle_allocator():
        oracle_run = simulate()
    assert_same_simulation(kernel_run, oracle_run)


def test_simulation_with_reroutes_and_failures_matches_oracle():
    """A fixed run that exercises both reroutes and failed flows."""
    ft = FlatTree(FlatTreeDesign.for_fat_tree(4))
    net = convert(ft, Mode.GLOBAL_RANDOM)
    rng = random.Random(5)
    servers = sorted(net.servers())
    flows = [FlowSpec(fid, *rng.sample(servers, 2), size=1.0,
                      arrival=0.02 * fid) for fid in range(30)]
    degraded = net.copy()
    for u, v, _cap in sorted(degraded.edge_list(), key=repr)[:6]:
        degraded.remove_cable(u, v)
    for server in servers[:4]:
        degraded.detach_server(server)
    events = [TopologyEvent(0.6, degraded, ksp_router(degraded))]
    kernel_run = FlowSimulator(net, ksp_router(net)).run(flows, events=events)
    with oracle_allocator():
        oracle_run = FlowSimulator(net, ksp_router(net)).run(
            flows, events=events)
    assert kernel_run.rerouted > 0 and kernel_run.failed
    assert_same_simulation(kernel_run, oracle_run)
