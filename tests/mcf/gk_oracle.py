"""The per-sink Garg–Könemann solver, a reference for tests.

The straightforward form of the algorithm ``repro.mcf.approx``
vectorizes: every sink walks its own path up the Dijkstra tree in
Python, and the arc lengths are scattered into the CSR matrix before
every tree.  ``test_approx_oracle.py`` checks that the vectorized solver
returns exactly the same λ, phase count and tree count on every
instance it draws.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro import obs
from repro.errors import SolverError
from repro.mcf.commodities import FlowProblem
from repro.mcf.exact import MCFResult


def solve_concurrent_approx_oracle(
    problem: FlowProblem,
    epsilon: float = 0.1,
    max_phases: Optional[int] = None,
) -> MCFResult:
    """Approximate max concurrent flow within a (1 - ε) factor.

    ``max_phases`` optionally caps the phase count (the certified result
    stays feasible, just possibly further from optimal).
    """
    if not 0 < epsilon < 1:
        raise SolverError(f"epsilon must be in (0, 1), got {epsilon}")
    if problem.num_groups == 0:
        raise SolverError("no demand groups to solve")

    num_arcs = problem.num_arcs
    cap = problem.arc_cap
    delta = (1 + epsilon) * ((1 + epsilon) * num_arcs) ** (-1.0 / epsilon)
    lengths = delta / cap
    flow = np.zeros(num_arcs)
    routed: List[np.ndarray] = [
        np.zeros(len(g.sinks)) for g in problem.groups
    ]

    graph = _AdjacencyView(problem)
    d_value = float((lengths * cap).sum())
    phases = 0
    trees = 0
    budget = max_phases if max_phases is not None else _phase_budget(epsilon, num_arcs)
    # The phase budget is a theoretical worst case; d_value usually
    # crosses 1.0 far earlier, so the heartbeat ETA here is an upper
    # bound that only tightens (the clamp keeps it monotone).
    progress = obs.ProgressTracker("mcf.approx", total=budget)
    with obs.span("mcf.approx", groups=problem.num_groups, arcs=num_arcs), \
            obs.timer("mcf.approx.solve_s"):
        while d_value < 1.0 and phases < budget:
            for g_index, group in enumerate(problem.groups):
                remaining = group.demands.astype(np.float64).copy()
                # Route the whole group off shared shortest-path trees: one
                # Dijkstra serves every sink still carrying demand.  Length
                # bumps apply after each tree, not after each sink — a
                # standard batching of Fleischer's inner loop; the result
                # stays exact because feasibility is certified a posteriori.
                for _round in range(len(group.sinks) + 1):
                    if d_value >= 1.0 or not (remaining > 1e-12).any():
                        break
                    tree = graph.shortest_path_tree(lengths, group.source)
                    trees += 1
                    bump_amount = np.zeros(num_arcs)
                    for sink_pos, sink in enumerate(group.sinks):
                        if remaining[sink_pos] <= 1e-12:
                            continue
                        path_arcs = graph.tree_path(tree, int(sink))
                        if path_arcs is None:
                            # Unreachable sink: concurrent throughput is 0.
                            obs.incr("mcf.approx.unreachable_sinks")
                            return MCFResult(throughput=0.0,
                                             method="approx-gk")
                        bottleneck = float(cap[path_arcs].min())
                        amount = min(float(remaining[sink_pos]), bottleneck)
                        flow[path_arcs] += amount
                        bump_amount[path_arcs] += amount
                        routed[g_index][sink_pos] += amount
                        remaining[sink_pos] -= amount
                    bump = 1.0 + epsilon * bump_amount / cap
                    d_value += float((lengths * (bump - 1.0) * cap).sum())
                    lengths *= bump
            phases += 1
            progress.advance()
        progress.finish()

    obs.incr("mcf.approx.solves")
    obs.incr("mcf.approx.phases", phases)
    obs.incr("mcf.approx.dijkstra_calls", trees)
    result = _certify(problem, flow, routed)
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


class _AdjacencyView:
    """A CSR adjacency whose weights alias the arc-length array.

    The CSR structure is built once; each shortest-path query writes the
    current lengths into the matrix's ``data`` slots (a permutation,
    O(arcs)) and delegates to :func:`scipy.sparse.csgraph.dijkstra` —
    the C implementation is an order of magnitude faster than a Python
    heap loop, which dominates the FPTAS's runtime.

    Antiparallel arc pairs are unique per (src, dst) because parallel
    cables fold into single capacities upstream, so every arc owns
    exactly one CSR cell.
    """

    def __init__(self, problem: FlowProblem) -> None:
        import scipy.sparse as sp

        self.num_nodes = problem.num_nodes
        n = self.num_nodes
        coo = sp.coo_matrix(
            (
                np.ones(problem.num_arcs),
                (problem.arc_src, problem.arc_dst),
            ),
            shape=(n, n),
        )
        self._matrix = coo.tocsr()
        # Map each arc to its CSR data slot.
        lil_index = sp.csr_matrix(
            (
                np.arange(problem.num_arcs, dtype=np.int64),
                (problem.arc_src, problem.arc_dst),
            ),
            shape=(n, n),
        )
        # tocsr on duplicate-free input preserves per-cell values; the
        # data array of lil_index holds, per CSR slot, the arc index.
        self._slot_to_arc = lil_index.data.astype(np.int64)
        self._arc_to_slot = np.empty(problem.num_arcs, dtype=np.int64)
        self._arc_to_slot[self._slot_to_arc] = np.arange(problem.num_arcs)
        self._arc_dst = problem.arc_dst

    def shortest_path_tree(
        self, lengths: np.ndarray, source: int
    ) -> tuple:
        """One C Dijkstra: (distances, predecessors) from ``source``."""
        from scipy.sparse.csgraph import dijkstra

        self._matrix.data[self._arc_to_slot] = lengths
        dist, predecessors = dijkstra(
            self._matrix,
            directed=True,
            indices=source,
            return_predecessors=True,
        )
        return dist, predecessors, source

    def tree_path(self, tree: tuple, sink: int) -> Optional[np.ndarray]:
        """Arc indices from the tree's source to ``sink`` (None if cut)."""
        dist, predecessors, source = tree
        if sink == source or not np.isfinite(dist[sink]):
            return None
        arcs: List[int] = []
        node = sink
        while node != source:
            prev = int(predecessors[node])
            if prev < 0:
                return None
            row_start = self._matrix.indptr[prev]
            row_end = self._matrix.indptr[prev + 1]
            cols = self._matrix.indices[row_start:row_end]
            slot = row_start + int(np.searchsorted(cols, node))
            arcs.append(int(self._slot_to_arc[slot]))
            node = prev
        arcs.reverse()
        return np.asarray(arcs, dtype=np.int64)

    def shortest_path_arcs(
        self, lengths: np.ndarray, source: int, sink: int
    ) -> Optional[np.ndarray]:
        """Arc indices of a shortest source->sink path (None if cut off)."""
        return self.tree_path(self.shortest_path_tree(lengths, source), sink)
