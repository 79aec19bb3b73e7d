"""Unit and property tests for the Garg-Könemann approximation."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instances import TOPOLOGIES, counted, random_problem
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
from repro.mcf.approx import PhaseMix, solve_concurrent_approx
from repro.mcf.exact import solve_concurrent_exact
from repro.topology.clos import fat_tree_params
from repro.topology.elements import Network, PlainSwitch
from repro.topology.fattree import build_fat_tree
from repro.topology.jellyfish import build_jellyfish_like_fat_tree

SRC = Path(__file__).resolve().parents[2] / "src"

COUNTERS = ("mcf.approx.phases", "mcf.approx.dijkstra_calls",
            "mcf.approx.gap_stops")


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
        result = solve_concurrent_approx(problem)
        assert (result.throughput, result.upper_bound) == (0.0, 0.0)

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

    #: (λ_approx / λ_exact, phases, trees) at ε = 0.1 on the Figure 8
    #: weak-locality all-to-all workload (seed 0), per topology and k.
    #: Every run stops on the gap rule, so each ratio is at least 1 - ε.
    FIG8_RATIOS = {
        ("fat-tree", 4): (0.9969820081463415, 1, 234),
        ("flat-tree", 4): (0.9272400701257194, 1, 159),
        ("two-stage", 4): (0.9644611503814359, 5, 885),
        ("random graph", 4): (0.9867256168819121, 3, 527),
        ("fat-tree", 6): (0.9785351489263389, 1, 403),
        ("flat-tree", 6): (0.9751406097110451, 3, 775),
        ("two-stage", 6): (0.9917051815176455, 29, 9816),
        ("random graph", 6): (0.9669233670964845, 5, 1276),
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
        result, moved = counted(solve_concurrent_approx, problem,
                                COUNTERS, epsilon=0.1)
        approx = result.throughput
        ratio, phases, trees = self.FIG8_RATIOS[(topology, k)]
        assert approx <= exact * (1 + 1e-9)
        assert approx >= (1 - 0.1) * exact
        assert approx / exact == pytest.approx(ratio, rel=1e-9)
        assert moved == {"mcf.approx.phases": phases,
                         "mcf.approx.dijkstra_calls": trees,
                         "mcf.approx.gap_stops": 1}


class TestInterval:
    @settings(max_examples=25)
    @given(
        kind=st.sampled_from(TOPOLOGIES),
        k=st.sampled_from((4, 6)),
        seed=st.integers(min_value=0, max_value=10_000),
        pairs=st.integers(min_value=1, max_value=16),
        fractional=st.booleans(),
        wide_caps=st.booleans(),
        epsilon=st.sampled_from((0.05, 0.1, 0.2)),
    )
    def test_property_interval_brackets_exact(self, kind, k, seed, pairs,
                                              fractional, wide_caps,
                                              epsilon):
        """λ_lo ≤ λ* ≤ λ_hi, and a gap stop comes at the first phase
        whose interval is within (1 - ε).  The 1e-9 slack covers the
        exact LP's tolerance: λ_hi often equals λ*."""
        problem = random_problem(kind, k, seed, pairs, fractional, wide_caps)
        exact = solve_concurrent_exact(problem)
        assert exact.upper_bound == exact.throughput
        lam = exact.throughput
        result, moved = counted(solve_concurrent_approx, problem,
                                COUNTERS, epsilon=epsilon)
        assert 0 < result.throughput <= lam * (1 + 1e-9)
        assert lam <= result.upper_bound * (1 + 1e-9)
        if not moved["mcf.approx.gap_stops"]:
            return
        assert result.throughput >= (1 - epsilon) * result.upper_bound
        phases = int(moved["mcf.approx.phases"])
        if phases > 1:
            early, early_moved = counted(
                solve_concurrent_approx, problem, COUNTERS,
                epsilon=epsilon, max_phases=phases - 1)
            assert not early_moved["mcf.approx.gap_stops"]
            assert early.throughput < (1 - epsilon) * early.upper_bound

    def test_capped_trees_route_whole_demand_in_one_phase(self):
        """Both sinks share the source's only arc, so every tree sends
        twice that arc's capacity and is scaled by 1/2: each sink's
        demand of 5 takes ten trees, all in the first phase."""
        problem = FlowProblem(
            num_nodes=3,
            arc_src=np.array([0, 1, 1, 2], dtype=np.int32),
            arc_dst=np.array([1, 0, 2, 1], dtype=np.int32),
            arc_cap=np.ones(4),
            groups=[DemandGroup(0, np.array([1, 2], dtype=np.int32),
                                np.array([5.0, 5.0]))],
        )
        result, moved = counted(solve_concurrent_approx, problem,
                                COUNTERS, epsilon=0.1)
        assert moved == {"mcf.approx.phases": 1,
                         "mcf.approx.dijkstra_calls": 10,
                         "mcf.approx.gap_stops": 1}
        assert result.throughput == pytest.approx(0.1, rel=1e-12)
        assert result.upper_bound == pytest.approx(0.1, rel=1e-12)

    def test_a_branch_with_room_is_not_scaled(self):
        """Sinks 1 and 2 share arc 0→1 and are scaled by 1/2; sink 3's
        own branch has room, so it sends its bottleneck of 2 in each
        tree.  The group takes two trees; scaling the whole first tree
        by 1/2 would take three."""
        problem = FlowProblem(
            num_nodes=4,
            arc_src=np.array([0, 1, 1, 2, 0, 3], dtype=np.int32),
            arc_dst=np.array([1, 0, 2, 1, 3, 0], dtype=np.int32),
            arc_cap=np.array([1.0, 1.0, 1.0, 1.0, 2.0, 2.0]),
            groups=[DemandGroup(0, np.array([1, 2, 3], dtype=np.int32),
                                np.array([1.0, 1.0, 4.0]))],
        )
        result, moved = counted(solve_concurrent_approx, problem,
                                COUNTERS, epsilon=0.1)
        assert moved == {"mcf.approx.phases": 1,
                         "mcf.approx.dijkstra_calls": 2,
                         "mcf.approx.gap_stops": 1}
        assert result.throughput == pytest.approx(0.5, rel=1e-12)
        assert result.upper_bound == pytest.approx(0.5, rel=1e-12)


class TestPhaseMix:
    @settings(max_examples=50)
    @given(data=st.data(), arcs=st.integers(min_value=1, max_value=12),
           sinks=st.integers(min_value=1, max_value=6),
           phases=st.integers(min_value=1, max_value=6))
    def test_property_mix_beats_both_sides(self, data, arcs, sinks, phases):
        """Whole phases route every demand, so each step keeps the mix
        at most as loaded as the old mix and the new phase, certifies
        at least as much, and finds the best step on a fine grid."""
        positive = st.floats(min_value=0.1, max_value=10.0)
        cap = np.array(data.draw(
            st.lists(positive, min_size=arcs, max_size=arcs)))
        demands = np.array(data.draw(
            st.lists(positive, min_size=sinks, max_size=sinks)))
        problem = FlowProblem(
            num_nodes=2,
            arc_src=np.zeros(arcs, dtype=np.int32),
            arc_dst=np.ones(arcs, dtype=np.int32),
            arc_cap=cap,
            groups=[DemandGroup(0, np.ones(sinks, dtype=np.int32),
                                demands)],
        )
        # An arc a phase uses carries at least one tree's amount.
        arc_flow = st.one_of(st.just(0.0),
                             st.floats(min_value=0.01, max_value=10.0))
        flows = st.lists(arc_flow, min_size=arcs, max_size=arcs).filter(any)
        grid = np.linspace(0.0, 1.0, 10_001)[:, None]
        mix = PhaseMix(problem)
        for step in range(phases):
            flow = np.array(data.draw(flows))
            utilization = flow / cap
            worst = float(utilization.max())
            before = mix.utilization
            sides = [(worst, 1.0 / worst)]
            if step:
                sides.append((mix.worst, mix.certificate))
            certificate = mix.add(flow, demands.copy())
            assert certificate == mix.certificate
            for side_worst, side_certificate in sides:
                assert mix.worst <= side_worst
                assert certificate >= side_certificate * (1 - 1e-12)
            if step:
                on_grid = ((1 - grid) * before + grid * utilization).max(axis=1)
                assert mix.worst <= float(on_grid.min()) * (1 + 1e-12)

    def test_solve_loads_no_scipy_optimize(self):
        """The FPTAS serves the instances too big for the exact LP; the
        LP solver's package would add about 16 MB to its peak memory."""
        script = (
            "import random, sys\n"
            "from repro.mcf.approx import solve_concurrent_approx\n"
            "from repro.mcf.commodities import Commodity, build_flow_problem\n"
            "from repro.topology.jellyfish import "
            "build_jellyfish_like_fat_tree\n"
            "net = build_jellyfish_like_fat_tree(4, random.Random(1))\n"
            "servers = sorted(net.servers())\n"
            "problem = build_flow_problem(net, [\n"
            "    Commodity(a, b) for a in servers for b in servers\n"
            "    if net.server_switch(a) != net.server_switch(b)])\n"
            "assert solve_concurrent_approx(problem).throughput > 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('scipy.optimize')))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=30))
def test_property_approx_feasible_and_tight(seed):
    """Certified λ never exceeds the LP optimum; within ε of it here."""
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
    assert approx >= (1 - 0.1) * exact
