"""Unit and property tests for the Garg-Könemann approximation."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conversion import Mode
from repro.errors import SolverError
from repro.experiments.common import (
    baseline_networks,
    flat_tree_network,
    placement_rng,
)
from repro.experiments.fig8_alltoall import all_to_all_workload
from repro.mcf.commodities import (
    Commodity,
    DemandGroup,
    FlowProblem,
    build_flow_problem,
)
from repro.mcf.approx import solve_concurrent_approx
from repro.mcf.exact import solve_concurrent_exact
from repro.topology.clos import fat_tree_params
from repro.topology.elements import Network, PlainSwitch
from repro.topology.fattree import build_fat_tree
from repro.topology.jellyfish import build_jellyfish_like_fat_tree


class TestBasics:
    def test_epsilon_validated(self, triangle):
        problem = build_flow_problem(triangle, [Commodity(0, 1)])
        with pytest.raises(SolverError):
            solve_concurrent_approx(problem, epsilon=0.0)
        with pytest.raises(SolverError):
            solve_concurrent_approx(problem, epsilon=1.0)

    def test_single_path(self, path3):
        problem = build_flow_problem(path3, [Commodity(0, 1)])
        lam = solve_concurrent_approx(problem, epsilon=0.05).throughput
        assert lam == pytest.approx(1.0, rel=0.06)

    def test_disconnected_gives_zero(self):
        net = Network("disc")
        a, b, c = PlainSwitch(0), PlainSwitch(1), PlainSwitch(2)
        for node in (a, b, c):
            net.add_switch(node, 4)
        net.add_cable(a, b)
        net.add_server(0, a)
        net.add_server(1, c)
        problem = build_flow_problem(net, [Commodity(0, 1)])
        assert solve_concurrent_approx(problem).throughput == 0.0

    def test_max_phases_caps_work(self, triangle):
        problem = build_flow_problem(triangle, [Commodity(0, 1)])
        lam = solve_concurrent_approx(
            problem, epsilon=0.05, max_phases=1
        ).throughput
        # Still feasible (certified), possibly below optimal.
        assert 0.0 < lam <= 2.0 + 1e-9

    def test_parallel_arcs_rejected(self):
        problem = FlowProblem(
            num_nodes=2,
            arc_src=np.array([0, 0, 1], dtype=np.int32),
            arc_dst=np.array([1, 1, 0], dtype=np.int32),
            arc_cap=np.ones(3),
            groups=[DemandGroup(0, np.array([1], dtype=np.int32),
                                np.array([1.0]))],
        )
        with pytest.raises(SolverError, match="parallel arcs"):
            solve_concurrent_approx(problem)


class TestAgainstExact:
    def test_fat_tree_broadcast(self):
        net = build_fat_tree(4)
        servers = sorted(net.servers())
        commodities = [Commodity(servers[0], s) for s in servers[1:]]
        problem = build_flow_problem(net, commodities)
        exact = solve_concurrent_exact(problem).throughput
        approx = solve_concurrent_approx(problem, epsilon=0.05).throughput
        assert approx <= exact + 1e-9
        assert approx >= 0.9 * exact

    def test_multi_group(self, triangle):
        problem = build_flow_problem(
            triangle,
            [Commodity(0, 1), Commodity(1, 2), Commodity(2, 0)],
        )
        exact = solve_concurrent_exact(problem).throughput
        approx = solve_concurrent_approx(problem, epsilon=0.05).throughput
        assert approx <= exact + 1e-9
        assert approx >= 0.9 * exact

    #: λ_approx / λ_exact at ε = 0.1 on the Figure 8 weak-locality
    #: all-to-all workload (seed 0), per topology and k.  Tree-batched
    #: bumps leave λ a feasible lower bound, not within (1 - ε) of OPT.
    FIG8_RATIOS = {
        ("fat-tree", 4): 0.5568445475638051,
        ("flat-tree", 4): 0.9480249480249481,
        ("two-stage", 4): 0.926829268292683,
        ("random graph", 4): 0.9594882729211086,
        ("fat-tree", 6): 0.8808808808808809,
        ("flat-tree", 6): 0.7881205673758862,
        ("two-stage", 6): 0.9170861711578324,
        ("random graph", 6): 0.8017492711370262,
    }

    @pytest.mark.parametrize("topology,k", sorted(FIG8_RATIOS))
    def test_fig8_weak_locality_all_to_all(self, topology, k):
        params = fat_tree_params(k)
        workload = all_to_all_workload(
            params, "weak locality", placement_rng(0, "weak locality"))
        if topology == "flat-tree":
            net = flat_tree_network(k, Mode.LOCAL_RANDOM)
        else:
            net = baseline_networks(k, 0)[topology]
        problem = build_flow_problem(net, workload)
        exact = solve_concurrent_exact(problem).throughput
        approx = solve_concurrent_approx(problem, epsilon=0.1).throughput
        assert approx <= exact * (1 + 1e-9)
        assert approx / exact == pytest.approx(
            self.FIG8_RATIOS[(topology, k)], rel=1e-9)


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=30))
def test_property_approx_feasible_and_tight(seed):
    """Certified λ never exceeds the LP optimum; within 15% of it here."""
    rng = random.Random(seed)
    net = build_jellyfish_like_fat_tree(4, rng)
    servers = sorted(net.servers())
    commodities = []
    for _ in range(6):
        a, b = rng.sample(servers, 2)
        if net.server_switch(a) != net.server_switch(b):
            commodities.append(Commodity(a, b))
    if not commodities:
        return
    problem = build_flow_problem(net, commodities)
    exact = solve_concurrent_exact(problem).throughput
    approx = solve_concurrent_approx(problem, epsilon=0.1).throughput
    assert approx <= exact + 1e-9
    assert approx >= 0.85 * exact
