"""Fleischer/Garg–Könemann approximation for max concurrent flow.

The exact LP (``repro.mcf.exact``) grows as #groups × #arcs and becomes
impractical for the paper's largest instances (k = 30–32 all-to-all
traffic) on a laptop.  This module implements the classic multiplicative-
weights FPTAS (Garg & Könemann 1998; Fleischer 2000):

* every arc carries a length ``l(a)``, initialized to ``δ / cap(a)``;
* in *phases*, each commodity routes its full demand along successive
  shortest paths (by current lengths), bumping traversed arc lengths by
  ``(1 + ε · sent / cap)``;
* the process stops once ``D(l) = Σ l(a)·cap(a) ≥ 1``.

Rather than relying on the theoretical scaling constants, the solver
returns a **certified feasible** throughput: the accumulated flow is
scaled down by the worst arc overload, and λ is the minimum scaled
rate over all commodities.  That certifies a feasible lower bound on
the optimum and nothing more.  The (1 - ε) factor is the textbook
guarantee of the unbatched algorithm; this solver bumps lengths once
per shortest-path tree, and it does not hold here.  Measured against
the exact LP, λ / OPT is 0.805 on a k=14 global-random flat-tree
all-to-all instance at ε = 0.08 (the benchmark's ``fptas_a2a``), and
0.79–0.92 on the Figure 8 weak-locality instances at k=6 with ε = 0.1
(0.56–0.96 at k=4; ``tests/mcf/test_approx.py`` pins each ratio).

Each Dijkstra tree costs a fixed number of numpy calls, however many
sinks it serves: all live sinks climb the tree together, one level
per step, and the per-arc sums run in sink order, so the results are
bit-identical to routing one sink after another.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import SolverError
from repro.mcf.commodities import FlowProblem
from repro.mcf.exact import MCFResult


def solve_concurrent_approx(
    problem: FlowProblem,
    epsilon: float = 0.1,
    max_phases: Optional[int] = None,
) -> MCFResult:
    """Approximate max concurrent flow; λ is certified feasible.

    ``max_phases`` optionally caps the phase count (the certified result
    stays feasible, just possibly further from optimal).
    """
    if not 0 < epsilon < 1:
        raise SolverError(f"epsilon must be in (0, 1), got {epsilon}")
    if problem.num_groups == 0:
        raise SolverError("no demand groups to solve")

    num_arcs = problem.num_arcs
    delta = (1 + epsilon) * ((1 + epsilon) * num_arcs) ** (-1.0 / epsilon)
    lengths = delta / problem.arc_cap
    d_value = float((lengths * problem.arc_cap).sum())
    graph = _SlotGraph(problem, lengths)
    flow = np.zeros(num_arcs)  # per CSR slot, like graph.lengths
    routed: List[np.ndarray] = [
        np.zeros(len(g.sinks)) for g in problem.groups
    ]

    phases = 0
    trees = 0
    budget = max_phases if max_phases is not None else _phase_budget(epsilon, num_arcs)
    with obs.span("mcf.approx", groups=problem.num_groups, arcs=num_arcs), \
            obs.timer("mcf.approx.solve_s"):
        while d_value < 1.0 and phases < budget:
            for g_index, group in enumerate(problem.groups):
                remaining = group.demands.astype(np.float64)
                # Route the whole group off shared shortest-path trees: one
                # Dijkstra serves every sink still carrying demand.  Length
                # bumps apply after each tree, not after each sink — a
                # standard batching of Fleischer's inner loop; the result
                # stays feasible because it is certified a posteriori.
                for _round in range(len(group.sinks) + 1):
                    live = (remaining > 1e-12).nonzero()[0]
                    if d_value >= 1.0 or not live.size:
                        break
                    tree = graph.shortest_path_tree(
                        group.source, group.sinks[live])
                    trees += 1
                    if tree is None:
                        # Unreachable sink: concurrent throughput is 0.
                        obs.incr("mcf.approx.unreachable_sinks")
                        return MCFResult(throughput=0.0, method="approx-gk")
                    owner, nodes, parent = tree
                    slots = parent[nodes]
                    # Each sink sends min(remaining, path bottleneck).
                    amount = remaining[live]
                    np.minimum.at(amount, owner, graph.cap[slots])
                    routed[g_index][live] += amount
                    remaining[live] -= amount
                    # Pairs run sink-major, so every arc adds its sinks'
                    # amounts in sink order, as a per-sink loop would.
                    sent = amount[owner]
                    np.add.at(flow, slots, sent)
                    d_value += graph.lengthen(
                        parent, np.bincount(nodes, sent, graph.num_nodes),
                        epsilon)
            phases += 1

    obs.incr("mcf.approx.solves")
    obs.incr("mcf.approx.phases", phases)
    obs.incr("mcf.approx.dijkstra_calls", trees)
    result = _certify(problem, graph.to_arc_order(flow), routed)
    obs.set_gauge("mcf.approx.last_objective", result.throughput)
    return result


def _phase_budget(epsilon: float, num_arcs: int) -> int:
    """Theoretical upper bound on the number of phases (safety net)."""
    return int(math.ceil(2 * math.log((1 + epsilon) * num_arcs) / (epsilon**2))) + 2


def _certify(
    problem: FlowProblem, flow: np.ndarray, routed: List[np.ndarray]
) -> MCFResult:
    """Scale accumulated flow to feasibility and report the worst rate."""
    with np.errstate(divide="ignore", invalid="ignore"):
        overload = np.where(flow > 0, flow / problem.arc_cap, 0.0)
    worst = float(overload.max())
    scale = 1.0 if worst <= 1.0 else 1.0 / worst
    lam = math.inf
    for group, sent in zip(problem.groups, routed):
        rates = sent * scale / group.demands
        lam = min(lam, float(rates.min()))
    if not math.isfinite(lam):
        raise SolverError("approximation produced no routed flow")
    return MCFResult(throughput=lam, method="approx-gk")


class _SlotGraph:
    """The arc graph in CSR slot order, with the lengths as its weights.

    A CSR slot is an arc's position in the matrix, sorted by (tail,
    head).  The matrix's ``data`` *is* the length array, so a length
    bump is visible to the next :func:`scipy.sparse.csgraph.dijkstra`
    without copying anything.  Every per-arc array here is in slot
    order, and ``slot_arc`` maps a slot back to the problem's arc.

    Antiparallel arc pairs are unique per (src, dst) because parallel
    cables fold into single capacities upstream, so every arc owns
    exactly one slot.
    """

    def __init__(self, problem: FlowProblem, lengths: np.ndarray) -> None:
        import scipy.sparse as sp
        from scipy.sparse.csgraph import dijkstra

        self._dijkstra = dijkstra
        n = self.num_nodes = problem.num_nodes
        self.slot_arc = np.lexsort((problem.arc_dst, problem.arc_src))
        tails = problem.arc_src[self.slot_arc]
        heads = problem.arc_dst[self.slot_arc]
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
        self._matrix = sp.csr_matrix(
            (lengths[self.slot_arc], heads.astype(np.int32), indptr),
            shape=(n, n),
        )
        self.lengths: np.ndarray = self._matrix.data
        self.cap = problem.arc_cap[self.slot_arc]
        # Sorted (tail, head) keys: the slot of arc u->v is where
        # ``u * n + v`` falls among them.
        self._width = np.int64(n)
        self._slot_key = tails * self._width + heads
        if (np.diff(self._slot_key) == 0).any():
            raise SolverError("parallel arcs must fold into one capacity")
        self._nodes = np.arange(n, dtype=np.int64)

    def shortest_path_tree(
        self, source: int, sinks: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """One C Dijkstra from ``source``, and every sink's path in it.

        Returns ``(owner, nodes, parent)``.  Pair ``j`` says tree node
        ``nodes[j]`` lies on the path to ``sinks[owner[j]]``; the pairs
        run sink-major, each path from its sink up to (not including)
        the source.  ``parent[v]`` is the slot of node ``v``'s tree arc.
        None when a sink is unreachable.
        """
        _, pred = self._dijkstra(self._matrix, directed=True,
                                 indices=source, return_predecessors=True)
        step = pred[sinks]
        if step.min() < 0:
            return None
        parent = np.searchsorted(self._slot_key,
                                 pred * self._width + self._nodes)
        # Every sink climbs one tree level per step; a sink that has
        # reached the source stays there.
        pred[source] = source
        levels = [sinks]
        while np.count_nonzero(step != source):
            levels.append(step)
            step = pred[step]
        walk = np.array(levels).T.ravel()
        below = walk != source
        owner = below.nonzero()[0] // len(levels)
        return owner, walk[below], parent

    def lengthen(
        self, parent: np.ndarray, bumped: np.ndarray, epsilon: float
    ) -> float:
        """Bump the lengths of one tree's arcs; returns the growth of D(l).

        ``bumped[v]`` is the flow the tree sent into node ``v``, i.e.
        over arc ``parent[v]``.  Arcs the tree did not use keep their
        lengths exactly (a bump of 1.0), so only used slots are touched.
        The growth is summed over an array in the problem's arc order,
        because a float sum's rounding depends on its order.
        """
        heads = bumped.nonzero()[0]
        hit = parent[heads]
        cap = self.cap[hit]
        bump = 1.0 + epsilon * bumped[heads] / cap
        lengths = self.lengths[hit]
        growth = np.zeros(self.lengths.size)
        growth[self.slot_arc[hit]] = lengths * (bump - 1.0) * cap
        self.lengths[hit] = lengths * bump
        return float(growth.sum())

    def to_arc_order(self, values: np.ndarray) -> np.ndarray:
        """A per-slot array re-indexed by the problem's arcs."""
        out = np.empty_like(values)
        out[self.slot_arc] = values
        return out
