"""Small random flow problems and counted solves for the solver tests."""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Dict, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.conversion import Mode, convert
from repro.core.design import FlatTreeDesign
from repro.core.flattree import FlatTree
from repro.mcf.commodities import Commodity, FlowProblem, build_flow_problem
from repro.mcf.exact import MCFResult
from repro.topology.elements import Network
from repro.topology.fattree import build_fat_tree
from repro.topology.jellyfish import build_jellyfish_like_fat_tree

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


def counted(solver, problem: FlowProblem, counters: Sequence[str],
            **kwargs) -> Tuple[MCFResult, Dict[str, float]]:
    """One solve, and how far it moved each of ``counters``."""
    obs.disable()
    obs.registry.reset()
    obs.enable()
    try:
        result = solver(problem, **kwargs)
        return result, {name: obs.registry.counter(name).value
                        for name in counters}
    finally:
        obs.disable()
        obs.registry.reset()
