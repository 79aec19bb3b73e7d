"""Unit tests for the exact concurrent-flow LP."""

from __future__ import annotations

import contextlib
import random
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult, linprog

from instances import counted
from repro import obs
from repro.core.conversion import Mode
from repro.errors import SolverError
from repro.experiments.common import flat_tree_network, placement_rng
from repro.experiments.fig8_alltoall import all_to_all_workload
from repro.mcf import exact
from repro.mcf.commodities import (
    Commodity,
    DemandGroup,
    FlowProblem,
    build_flow_problem,
)
from repro.mcf.exact import solve_concurrent_exact
from repro.mcf.maxflow import concurrent_upper_bound, single_pair_max_flow
from repro.obs.sinks import MemorySink
from repro.topology.clos import fat_tree_params
from repro.topology.elements import Network, PlainSwitch
from repro.topology.fattree import build_fat_tree
from repro.topology.jellyfish import build_jellyfish_like_fat_tree
from repro.traffic.clusters import cluster_count, make_clusters
from repro.traffic.patterns import (
    all_to_all_commodities,
    broadcast_commodities,
)
from repro.traffic.placement import placement_by_name

import numpy as np


@pytest.fixture()
def counter():
    """Telemetry on for one test; yields a reader of counter values."""
    obs.disable()
    obs.registry.reset()
    obs.enable(MemorySink())
    yield lambda name: obs.registry.snapshot().get(name, {}).get("value", 0)
    obs.disable()
    obs.registry.reset()


@contextlib.contextmanager
def linprog_calls(failures=0):
    """Record the ``linprog`` calls ``solve_concurrent_exact`` makes.

    The first ``failures`` calls fail without solving; later ones run.
    Yields the list of ``(kwargs, result)``, one entry per call.
    """
    calls = []

    def recording_linprog(*args, **kwargs):
        if len(calls) < failures:
            result = OptimizeResult(
                success=False, message=f"attempt {len(calls) + 1} failed")
        else:
            result = linprog(*args, **kwargs)
        calls.append((kwargs, result))
        return result

    with mock.patch.object(exact, "linprog", recording_linprog):
        yield calls


def vertex_lambda(problem):
    """λ from the plain ``highs-ipm`` call, which ends in a crossover."""
    with linprog_calls(failures=1) as calls:
        lam = solve_concurrent_exact(problem).throughput
    assert len(calls) == 2
    assert calls[1][0]["method"] == "highs-ipm"
    assert calls[1][0]["options"] is None
    return lam


def fig8_k4_problem():
    """Figure 8's k=4 weak-locality fat-tree LP (seed 0).

    With crossover on, HiGHS runs 15 IPM and 162 crossover iterations.
    """
    workload = all_to_all_workload(
        fat_tree_params(4), "weak locality", placement_rng(0, "weak locality"))
    return build_flow_problem(build_fat_tree(4), workload)


def assert_certified_flows(problem, result, atol=1e-8):
    """Flows are non-negative, fit the arcs and carry λ·b per group."""
    flows = result.flows
    assert flows is not None
    assert flows.shape == (problem.num_groups, problem.num_arcs)
    assert flows.min() >= -atol
    assert np.all(flows.sum(axis=0) <= problem.arc_cap + atol)
    n = problem.num_nodes
    for g, group in enumerate(problem.groups):
        net_out = (np.bincount(problem.arc_src, flows[g], n)
                   - np.bincount(problem.arc_dst, flows[g], n))
        supply = np.zeros(n)
        supply[group.source] = group.total_demand
        supply[group.sinks] -= group.demands
        assert np.abs(net_out - result.throughput * supply).max() <= atol


def line_network(n, servers_at):
    net = Network("line")
    nodes = [PlainSwitch(i) for i in range(n)]
    for node in nodes:
        net.add_switch(node, 8)
    for a, b in zip(nodes, nodes[1:]):
        net.add_cable(a, b)
    for sid, where in enumerate(servers_at):
        net.add_server(sid, nodes[where])
    return net


class TestKnownOptima:
    def test_single_commodity_path(self):
        net = line_network(3, [0, 2])
        lam = solve_concurrent_exact(
            build_flow_problem(net, [Commodity(0, 1)])
        ).throughput
        assert lam == pytest.approx(1.0)

    def test_two_commodities_share_link(self):
        net = line_network(3, [0, 0, 2])
        problem = build_flow_problem(
            net, [Commodity(0, 2), Commodity(1, 2)]
        )
        lam = solve_concurrent_exact(problem).throughput
        assert lam == pytest.approx(0.5)

    def test_opposite_directions_full_duplex(self):
        """Antiparallel demands do not contend (full-duplex model)."""
        net = line_network(2, [0, 1])
        problem = build_flow_problem(
            net, [Commodity(0, 1), Commodity(1, 0)]
        )
        lam = solve_concurrent_exact(problem).throughput
        assert lam == pytest.approx(1.0)

    def test_triangle_uses_detour(self, triangle):
        """One commodity over a triangle: direct + 2-hop detour = 2.0."""
        problem = build_flow_problem(triangle, [Commodity(0, 1)])
        lam = solve_concurrent_exact(problem).throughput
        assert lam == pytest.approx(2.0)

    def test_demand_scales_inversely(self, triangle):
        problem = build_flow_problem(
            triangle, [Commodity(0, 1, demand=4.0)]
        )
        lam = solve_concurrent_exact(problem).throughput
        assert lam == pytest.approx(0.5)

    def test_disconnected_sink_gives_zero(self):
        net = Network("disc")
        a, b = PlainSwitch(0), PlainSwitch(1)
        c, d = PlainSwitch(2), PlainSwitch(3)
        for node in (a, b, c, d):
            net.add_switch(node, 4)
        net.add_cable(a, b)
        net.add_cable(c, d)
        net.add_server(0, a)
        net.add_server(1, c)
        problem = build_flow_problem(net, [Commodity(0, 1)])
        assert solve_concurrent_exact(problem).throughput == pytest.approx(0.0)

    def test_no_groups_rejected(self, triangle):
        problem = build_flow_problem(triangle, [Commodity(0, 1)])
        empty = FlowProblem(
            num_nodes=problem.num_nodes,
            arc_src=problem.arc_src,
            arc_dst=problem.arc_dst,
            arc_cap=problem.arc_cap,
            groups=[],
        )
        with pytest.raises(SolverError):
            solve_concurrent_exact(empty)


class TestAgainstMaxFlow:
    def test_single_pair_equals_max_flow_fat_tree(self):
        """With one commodity, concurrent flow = max flow."""
        net = build_fat_tree(4)
        src = net.server_switch(0)
        dst = net.server_switch(15)
        problem = build_flow_problem(net, [Commodity(0, 15)])
        lam = solve_concurrent_exact(problem).throughput
        assert lam == pytest.approx(single_pair_max_flow(net, src, dst))

    def test_single_pair_equals_max_flow_jellyfish(self):
        net = build_jellyfish_like_fat_tree(4, random.Random(0))
        servers = sorted(net.servers())
        src_server, dst_server = servers[0], servers[-1]
        if net.server_switch(src_server) == net.server_switch(dst_server):
            pytest.skip("degenerate draw: same-switch pair")
        problem = build_flow_problem(net, [Commodity(src_server, dst_server)])
        lam = solve_concurrent_exact(problem).throughput
        flow = single_pair_max_flow(
            net, net.server_switch(src_server), net.server_switch(dst_server)
        )
        assert lam == pytest.approx(flow, rel=1e-4)


class TestFlowsOutput:
    def test_flows_respect_capacity_and_conservation(self, triangle):
        problem = build_flow_problem(
            triangle, [Commodity(0, 1), Commodity(1, 2)]
        )
        result = solve_concurrent_exact(problem, return_flows=True)
        assert_certified_flows(problem, result)
        util = result.utilization(problem)
        assert util.max() <= 1.0 + 1e-8

    def test_fig8_flows_respect_capacity_and_conservation(self):
        """An interior-point solution, unrounded by crossover, is feasible."""
        problem = fig8_k4_problem()
        result = solve_concurrent_exact(problem, return_flows=True)
        assert_certified_flows(problem, result)

    def test_utilization_requires_flows(self, triangle):
        problem = build_flow_problem(triangle, [Commodity(0, 1)])
        result = solve_concurrent_exact(problem)
        with pytest.raises(SolverError):
            result.utilization(problem)


class TestSolveChain:
    def test_first_attempt_skips_crossover(self, counter):
        problem = fig8_k4_problem()
        with linprog_calls() as calls, warnings.catch_warnings():
            warnings.simplefilter("error")
            solve_concurrent_exact(problem)
        [(kwargs, result)] = calls
        assert kwargs["method"] == "highs-ipm"
        assert kwargs["options"]["run_crossover"] == "off"
        assert result.success
        assert result.nit > 0
        assert result.crossover_nit == 0
        assert counter("mcf.exact.method_fallbacks") == 0

    def test_failed_first_attempt_falls_back_to_vertex_ipm(self, counter):
        problem = fig8_k4_problem()
        lam = solve_concurrent_exact(problem).throughput
        assert vertex_lambda(problem) == pytest.approx(lam, rel=1e-9)
        assert counter("mcf.exact.method_fallbacks") == 1

    def test_all_attempts_failing_raise_the_last_message(self, counter):
        problem = fig8_k4_problem()
        with linprog_calls(failures=3) as calls, \
                pytest.raises(SolverError, match="attempt 3 failed"):
            solve_concurrent_exact(problem)
        assert [kwargs["method"] for kwargs, _ in calls] == [
            "highs-ipm", "highs-ipm", "highs"]
        assert counter("mcf.exact.method_fallbacks") == 3


def cable_solve(problem):
    """λ of one solve, and how many cable-form solves it made."""
    result, moved = counted(solve_concurrent_exact, problem,
                            ["mcf.exact.cable_solves"])
    return result.throughput, moved["mcf.exact.cable_solves"]


def per_arc_lambda(problem):
    """λ of the per-arc form, which every solve with flows takes."""
    result, moved = counted(solve_concurrent_exact, problem,
                            ["mcf.exact.cable_solves"], return_flows=True)
    assert moved["mcf.exact.cable_solves"] == 0
    assert result.flows.shape == (problem.num_groups, problem.num_arcs)
    return result.throughput


def assert_forms_agree(problem):
    """``problem`` solves over cables, at the per-arc form's λ."""
    lam, cable_solves = cable_solve(problem)
    assert cable_solves == 1
    assert lam == pytest.approx(per_arc_lambda(problem), rel=1e-9)
    return lam


def fat_tree_alltoall():
    """Two 8-server all-to-all clusters on fat-tree(4)."""
    return all_to_all_commodities(make_clusters(list(range(16)), 8))


class TestCableForm:
    """Symmetric demand on full-duplex arcs is solved over cables."""

    def test_fractional_demands_on_a_two_cable_bundle(self):
        net = Network("bundle")
        a, b, c = (PlainSwitch(i) for i in range(3))
        for node in (a, b, c):
            net.add_switch(node, 8)
        net.add_cable(a, b)
        net.add_cable(a, b)
        net.add_cable(b, c)
        net.add_cable(a, c)
        for sid, node in enumerate((a, b, c)):
            net.add_server(sid, node)
        demands = {(0, 1): 0.75, (0, 2): 1.5, (1, 2): 0.25}
        problem = build_flow_problem(net, [
            Commodity(src, dst, demand)
            for (u, v), demand in demands.items()
            for src, dst in ((u, v), (v, u))])
        assert sorted(problem.arc_cap) == [1.0, 1.0, 1.0, 1.0, 2.0, 2.0]
        assert_forms_agree(problem)

    def test_pair_split_across_components_gives_zero(self):
        net = Network("split")
        a, b, c, d = (PlainSwitch(i) for i in range(4))
        for node in (a, b, c, d):
            net.add_switch(node, 4)
        net.add_cable(a, b)
        net.add_cable(c, d)
        net.add_server(0, a)
        net.add_server(1, c)
        problem = build_flow_problem(net, [Commodity(0, 1), Commodity(1, 0)])
        assert assert_forms_agree(problem) == pytest.approx(0.0)
        assert per_arc_lambda(problem) == pytest.approx(0.0)

    def test_span_reports_the_groups_solved(self, counter, triangle):
        problem = build_flow_problem(triangle, [
            Commodity(s, t) for s in range(3) for t in range(3) if s != t])
        solve_concurrent_exact(problem)
        solve_concurrent_exact(problem, return_flows=True)
        spans = [event for event in obs.current_sink().events
                 if event["name"] == "mcf.exact"]
        assert [span["groups"] for span in spans] == [2, 3]
        assert counter("mcf.exact.cable_solves") == 1

    def test_broadcast_keeps_per_arc(self):
        clusters = make_clusters(list(range(16)), 8, random.Random(0),
                                 with_hotspots=True)
        problem = build_flow_problem(build_fat_tree(4),
                                     broadcast_commodities(clusters))
        assert cable_solve(problem)[1] == 0
        assert cable_solve(problem.reversed())[1] == 0

    @pytest.mark.parametrize("extra", [Commodity(0, 15), Commodity(0, 7)],
                             ids=["new pair", "loaded pair"])
    def test_one_way_commodity_keeps_per_arc(self, extra):
        """Servers 0 and 15 share no cluster; 0 and 7 do, so the extra
        commodity leaves their switches 5 units one way and 4 back."""
        problem = build_flow_problem(build_fat_tree(4),
                                     fat_tree_alltoall() + [extra])
        assert cable_solve(problem)[1] == 0

    def test_unequal_pair_capacities_keep_per_arc(self):
        problem = build_flow_problem(build_fat_tree(4), fat_tree_alltoall())
        assert cable_solve(problem)[1] == 1
        problem.arc_cap = problem.arc_cap.copy()
        problem.arc_cap[1] = 2.0
        assert cable_solve(problem)[1] == 0

    def test_arcs_not_in_antiparallel_pairs_keep_per_arc(self):
        """Arcs 0 → 1, 1 → 2, 1 → 0, 2 → 1: pairing 2j with 2j + 1 would
        put both hops of the 0 ↔ 2 route on one row and halve λ."""
        problem = FlowProblem(
            num_nodes=3,
            arc_src=np.array([0, 1, 1, 2]),
            arc_dst=np.array([1, 2, 0, 1]),
            arc_cap=np.ones(4),
            groups=[DemandGroup(0, np.array([2]), np.array([1.0])),
                    DemandGroup(2, np.array([0]), np.array([1.0]))])
        lam, cable_solves = cable_solve(problem)
        assert cable_solves == 0
        assert lam == pytest.approx(1.0)


TOPOLOGY = st.sampled_from(("fat-tree", "jellyfish", "flat-tree local-random",
                            "flat-tree global-random"))
PLACEMENT = st.sampled_from(("locality", "weak locality", "no locality"))
CLUSTER_SIZE = st.integers(min_value=3, max_value=8)
SEED = st.integers(min_value=0, max_value=2**16)


def alltoall_problem(topology, placement, cluster_size, seed):
    """All-to-all clusters at k=4, placed as Figure 8 places them."""
    rng = random.Random(seed)
    if topology == "fat-tree":
        net = build_fat_tree(4)
    elif topology == "jellyfish":
        net = build_jellyfish_like_fat_tree(4, rng)
    elif topology == "flat-tree local-random":
        net = flat_tree_network(4, Mode.LOCAL_RANDOM)
    else:
        net = flat_tree_network(4, Mode.GLOBAL_RANDOM)
    params = fat_tree_params(4)
    members = placement_by_name(
        placement, cluster_count(params.num_servers, cluster_size)
        * cluster_size, params, cluster_size, rng)
    return build_flow_problem(
        net, all_to_all_commodities(make_clusters(members, cluster_size)))


@settings(max_examples=8)
@given(topology=TOPOLOGY, placement=PLACEMENT, cluster_size=CLUSTER_SIZE,
       seed=SEED)
def test_property_lambda_matches_vertex_solve(
        topology, placement, cluster_size, seed):
    """IPM without crossover finds the vertex solve's λ, on random traffic."""
    problem = alltoall_problem(topology, placement, cluster_size, seed)
    lam = solve_concurrent_exact(problem).throughput
    assert lam == pytest.approx(vertex_lambda(problem), rel=1e-9)


@settings(max_examples=12)
@given(topology=TOPOLOGY, placement=PLACEMENT, cluster_size=CLUSTER_SIZE,
       seed=SEED)
def test_property_cable_form_matches_per_arc(
        topology, placement, cluster_size, seed):
    """Solving over cables keeps the per-arc λ, on random all-to-all traffic."""
    assert_forms_agree(alltoall_problem(topology, placement, cluster_size,
                                        seed))


@given(st.integers(min_value=0, max_value=50))
def test_property_cut_bound_dominates_exact(seed):
    """Cut-based upper bounds are never below the LP optimum."""
    rng = random.Random(seed)
    net = build_jellyfish_like_fat_tree(4, rng)
    servers = sorted(net.servers())
    commodities = []
    for _ in range(5):
        a, b = rng.sample(servers, 2)
        if net.server_switch(a) != net.server_switch(b):
            commodities.append(Commodity(a, b))
    if not commodities:
        return
    problem = build_flow_problem(net, commodities)
    lam = solve_concurrent_exact(problem).throughput
    assert lam <= concurrent_upper_bound(problem) + 1e-8
