"""The vectorized Garg–Könemann solver against the per-sink oracle.

In ``gk_oracle.solve_concurrent_approx_oracle`` every sink walks its
own path in Python.  The vectorized solver must reproduce its float
accumulation exactly.  λ, its upper bound, every phase's arc lengths
and flows, and every whole phase's flow and routed amounts are
compared with ``==``, and the ``mcf.approx.phases``,
``mcf.approx.dijkstra_calls`` and ``mcf.approx.mix_wins`` counters
must move by the same amounts.  The instances use fractional demands
and capacities above 1, where a different summation order would show
in the last bits.  The oracle also asserts, tree by tree, that no arc
carries more than its capacity and that a sink whose path has room is
not scaled, so every instance drawn here checks both.
"""

from __future__ import annotations

import random
from typing import Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gk_oracle import solve_concurrent_approx_oracle
from instances import TOPOLOGIES, counted, network, random_problem
from repro.mcf.approx import DualBound, PhaseMix, solve_concurrent_approx
from repro.mcf.commodities import (
    Commodity,
    DemandGroup,
    FlowProblem,
    build_flow_problem,
)

COUNTERS = ("mcf.approx.phases", "mcf.approx.dijkstra_calls",
            "mcf.approx.mix_wins")


def solve_both(problem: FlowProblem, **kwargs) -> Tuple[tuple, tuple]:
    """(λ, upper bound, phase delta, tree delta, mix-win delta, phase
    ends, whole phases) of solver and oracle.  A phase end is the bytes
    of the arc lengths and flows the solver hands to ``DualBound`` after
    a phase, and a whole phase the bytes of the flow and routed amounts
    it hands to ``PhaseMix``, so a difference in the last bit of any of
    them counts even where λ does not show it."""
    bound_call, mix_add = DualBound.__call__, PhaseMix.add
    out = []
    for solver in (solve_concurrent_approx, solve_concurrent_approx_oracle):
        ends, wholes = [], []

        def record_end(bound, lengths, flow):
            ends.append((lengths.tobytes(), flow.tobytes()))
            return bound_call(bound, lengths, flow)

        def record_whole(mix, flow, routed):
            wholes.append((flow.tobytes(), routed.tobytes()))
            return mix_add(mix, flow, routed)

        DualBound.__call__, PhaseMix.add = record_end, record_whole
        try:
            result, moved = counted(solver, problem, COUNTERS, **kwargs)
        finally:
            DualBound.__call__, PhaseMix.add = bound_call, mix_add
        out.append((result.throughput, result.upper_bound,
                    *(moved[name] for name in COUNTERS), tuple(ends),
                    tuple(wholes)))
    return out[0], out[1]


@settings(max_examples=25)
@given(
    kind=st.sampled_from(TOPOLOGIES),
    k=st.sampled_from((4, 6)),
    seed=st.integers(min_value=0, max_value=10_000),
    pairs=st.integers(min_value=1, max_value=16),
    fractional=st.booleans(),
    wide_caps=st.booleans(),
    epsilon=st.sampled_from((0.15, 0.25, 0.4)),
    max_phases=st.sampled_from((None, None, 1, 3)),
)
def test_property_matches_oracle_exactly(kind, k, seed, pairs, fractional,
                                         wide_caps, epsilon, max_phases):
    problem = random_problem(kind, k, seed, pairs, fractional, wide_caps)
    new, old = solve_both(problem, epsilon=epsilon, max_phases=max_phases)
    assert new == old
    assert new[0] > 0


def test_fractional_all_to_all_matches_oracle():
    """Every group routes many sinks per tree, so arcs are shared."""
    net = network("flat-tree global-random", 6)
    rng = random.Random(5)
    servers = sorted(net.servers())[:20]
    commodities = [Commodity(a, b, rng.uniform(0.2, 2.5))
                   for a in servers for b in servers
                   if net.server_switch(a) != net.server_switch(b)]
    problem = build_flow_problem(net, commodities)
    problem.arc_cap = problem.arc_cap * np.array(
        [rng.uniform(1.0, 3.0) for _ in range(problem.num_arcs)])
    new, old = solve_both(problem, epsilon=0.1)
    assert new == old
    assert new[2] > 1 and new[3] > problem.num_groups
    assert new[4] > 0 and len(new[6]) == new[2]


def test_single_phase_matches_oracle():
    problem = random_problem("fat-tree", 4, 3, 16, True, True)
    new, old = solve_both(problem, epsilon=0.1, max_phases=1)
    assert new == old
    assert new[2] == 1


def test_unreachable_sink_gives_zero_like_oracle():
    """Group 0 routes before group 1 meets its cut-off sink."""
    problem = FlowProblem(
        num_nodes=5,
        arc_src=np.array([0, 1, 1, 2, 3, 4], dtype=np.int32),
        arc_dst=np.array([1, 0, 2, 1, 4, 3], dtype=np.int32),
        arc_cap=np.array([1.5, 1.5, 2.0, 2.0, 1.0, 1.0]),
        groups=[
            DemandGroup(0, np.array([1, 2], dtype=np.int32),
                        np.array([0.5, 1.25])),
            DemandGroup(1, np.array([0, 4], dtype=np.int32),
                        np.array([1.0, 0.75])),
        ],
    )
    new, old = solve_both(problem, epsilon=0.1)
    assert new == old
    assert new == (0.0, 0.0, 0.0, 0.0, 0.0, (), ())
