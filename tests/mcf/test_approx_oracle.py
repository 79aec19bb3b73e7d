"""The vectorized Garg–Könemann solver against the per-sink oracle.

In ``gk_oracle.solve_concurrent_approx_oracle`` every sink walks its
own path in Python.  The vectorized solver must reproduce its float
accumulation exactly.  λ is compared with ``==``, and the
``mcf.approx.phases`` and ``mcf.approx.dijkstra_calls`` counters must
move by the same amounts.  The instances use fractional demands and
capacities above 1, where a different summation order would show in
the last bits.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gk_oracle import solve_concurrent_approx_oracle
from repro import obs
from repro.core.conversion import Mode, convert
from repro.core.design import FlatTreeDesign
from repro.core.flattree import FlatTree
from repro.mcf.approx import solve_concurrent_approx
from repro.mcf.commodities import (
    Commodity,
    DemandGroup,
    FlowProblem,
    build_flow_problem,
)
from repro.topology.elements import Network
from repro.topology.fattree import build_fat_tree
from repro.topology.jellyfish import build_jellyfish_like_fat_tree

COUNTERS = ("mcf.approx.phases", "mcf.approx.dijkstra_calls")
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


def solve_both(problem: FlowProblem, **kwargs) -> Tuple[tuple, tuple]:
    """(λ, phase delta, tree delta) of the solver and of the oracle."""
    out = []
    obs.disable()
    obs.registry.reset()
    obs.enable()
    try:
        for solver in (solve_concurrent_approx,
                       solve_concurrent_approx_oracle):
            before = [obs.registry.counter(name).value for name in COUNTERS]
            lam = solver(problem, **kwargs).throughput
            after = [obs.registry.counter(name).value for name in COUNTERS]
            out.append((lam, *(b - a for a, b in zip(before, after))))
    finally:
        obs.disable()
        obs.registry.reset()
    return out[0], out[1]


def random_problem(kind: str, k: int, seed: int, pairs: int,
                   fractional: bool, wide_caps: bool) -> FlowProblem:
    rng = random.Random(seed)
    net = network(kind, k)
    servers = sorted(net.servers())
    commodities = []
    while len(commodities) < pairs:
        a, b = rng.sample(servers, 2)
        if net.server_switch(a) != net.server_switch(b):
            demand = rng.uniform(0.1, 3.0) if fractional else 1.0
            commodities.append(Commodity(a, b, demand))
    problem = build_flow_problem(net, commodities)
    if wide_caps:
        scale = np.array([rng.uniform(1.0, 4.0)
                          for _ in range(problem.num_arcs)])
        problem.arc_cap = problem.arc_cap * scale
    return problem


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
    assert new[1] > 1 and new[2] > problem.num_groups


def test_single_phase_matches_oracle():
    problem = random_problem("fat-tree", 4, 3, 16, True, True)
    new, old = solve_both(problem, epsilon=0.1, max_phases=1)
    assert new == old
    assert new[1] == 1


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
    assert new == (0.0, 0.0, 0.0)
