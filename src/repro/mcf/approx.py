"""Fleischer/Garg–Könemann approximation for max concurrent flow.

The exact LP (``repro.mcf.exact``) grows as #groups × #arcs and becomes
impractical for the paper's largest instances (k = 30–32 all-to-all
traffic) on a laptop.  This module implements the classic multiplicative-
weights FPTAS (Garg & Könemann 1998; Fleischer 2000):

* every arc carries a length ``l(a)``, initialized to ``δ / cap(a)``;
* in *phases*, each commodity group routes its full demand along
  successive shortest-path trees (by current lengths), bumping each
  traversed arc's length by ``(1 + ε · sent / cap)``.  Each sink's
  amount in a tree is divided by the worst load/capacity on its own
  path, when that exceeds 1, so no arc carries more than its capacity
  in one tree, as in Fleischer's tree routing, and a sink whose branch
  has room sends all it may;
* the textbook run ends once ``D(l) = Σ l(a)·cap(a) ≥ 1``.

The solver returns a **certified interval** ``λ_lo ≤ λ* ≤ λ_hi``:

* ``λ_lo`` (``throughput``) is feasible.  Two flows are certified at
  every phase end: the accumulated flow, scaled down by its worst arc
  overload, and a convex mix of the whole phases (:class:`PhaseMix`),
  scaled to its worst arc utilization.  A whole phase routes every
  demand once, and after each one the mix moves toward it by the step
  that minimizes the mix's worst utilization, so no phase's hottest
  arcs cap the answer for good.  λ is the minimum scaled rate over all
  commodities, and ``λ_lo`` the best such value seen at a phase end.
* ``λ_hi`` (``upper_bound``) comes from weak duality: for any lengths
  ``l ≥ 0``, ``λ* ≤ D(l) / α(l)`` with
  ``α(l) = Σ_g Σ_t d_g(t) · dist_l(s_g, t)`` (:class:`DualBound`).

The run stops at the first of: ``λ_lo ≥ (1 − ε)·λ_hi``, which proves the
answer within (1 − ε) of λ*; ``D(l) ≥ 1``, the end the Garg–Könemann
and Fleischer analysis covers; or the phase budget.  When it stops on
either of the last two, the interval still states the accuracy proven.
``λ_hi`` starts at the cut bounds of
:func:`repro.mcf.maxflow.concurrent_upper_bound`.

Measured: on the benchmark's ``fptas_a2a`` instance (k = 14
global-random flat-tree, all-to-all, ε = 0.08) the run stops at phase
2 after 5,908 trees, with λ_lo = 0.937·λ* from the mix and λ_hi = λ*
(the cut bound is tight there).  Scaling every sink of a tree by the
tree's worst overload took 8,104 trees to certify 0.927·λ*; with the
accumulated flow alone it took 4 phases and 16,292 trees, and the
textbook run took 93 phases and returned 0.805·λ*.  At ε = 0.1 all
twelve Figure 8 weak-locality instances at k = 4–8 stop on the gap
rule, after 1–29 phases, with λ_lo/λ* between 0.927 and 0.997
(``tests/mcf/test_approx.py`` pins the k = 4 and 6 ratios, phases
and trees).  Where the dual bound stays loose the run is longer than
the textbook one: on a k = 16 Figure 8 flat-tree instance λ_hi stays
about 1.17·λ_lo, and the run ends at ``D(l) ≥ 1``
(docs/performance.md).

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
from repro.mcf.maxflow import concurrent_upper_bound

#: Utilization thresholds τ of the dual bound's cut lengths: an arc is
#: long where the accumulated flow's utilization reaches τ of its peak.
#: On ``fptas_a2a`` and the twelve Figure 8 instances at k = 4–8, these
#: three stop every run at the same phase as {0.6, 0.8, 0.9, 0.95};
#: without 0.8, two runs stop a phase later, and with 0.9 alone, four.
BOUND_THRESHOLDS = (0.8, 0.9, 0.95)

#: Length of a short arc under a cut length function.  It is positive
#: so that no explicit zero reaches csgraph.
_SHORT_ARC = 1e-9


def solve_concurrent_approx(
    problem: FlowProblem,
    epsilon: float = 0.1,
    max_phases: Optional[int] = None,
) -> MCFResult:
    """Approximate max concurrent flow with a certified interval.

    ``throughput`` is a feasible λ and ``upper_bound`` a proven bound
    on the optimum; the run stops once they are within (1 - ε).
    ``max_phases`` optionally caps the phase count (the interval stays
    certified, just possibly wider).
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
    bound = DualBound(problem)
    mix = PhaseMix(problem)
    flow = np.zeros(num_arcs)  # per CSR slot, like graph.lengths
    routed: List[np.ndarray] = [
        np.zeros(len(g.sinks)) for g in problem.groups
    ]
    # The accumulated flow and routed amounts when the phase began.
    start_flow, start_routed = np.zeros(num_arcs), np.concatenate(routed)

    lam_lo = 0.0
    lam_hi = bound.cut_bound
    phases = 0
    trees = 0
    mix_wins = 0
    budget = max_phases if max_phases is not None else _phase_budget(epsilon, num_arcs)
    with obs.span("mcf.approx", groups=problem.num_groups, arcs=num_arcs), \
            obs.timer("mcf.approx.solve_s"):
        while phases < budget:
            for g_index, group in enumerate(problem.groups):
                remaining = group.demands.astype(np.float64)
                # A whole phase routes the group's whole demand.  One
                # Dijkstra serves every sink still carrying demand, and
                # length bumps apply after each tree, not after each sink.
                while True:
                    live = (remaining > 1e-12).nonzero()[0]
                    if d_value >= 1.0 or not live.size:
                        break
                    tree = graph.shortest_path_tree(
                        group.source, group.sinks[live])
                    trees += 1
                    if tree is None:
                        # Unreachable sink: concurrent throughput is 0.
                        obs.incr("mcf.approx.unreachable_sinks")
                        return MCFResult(throughput=0.0, method="approx-gk",
                                         upper_bound=0.0)
                    owner, starts, nodes, parent = tree
                    slots = parent[nodes]
                    cap = graph.cap[slots]
                    # Each sink sends min(remaining, path bottleneck).
                    amount = np.minimum(remaining[live],
                                        np.minimum.reduceat(cap, starts))
                    # Pairs run sink-major, so every arc adds its sinks'
                    # amounts in sink order, as a per-sink loop would.
                    sent = amount[owner]
                    load = np.bincount(nodes, sent, graph.num_nodes)
                    # Cap the tree: each sink's amount shrinks by the
                    # worst overload on its own path, so no arc carries
                    # more than its capacity, and a sink whose path has
                    # room keeps its whole amount.
                    sigma = np.maximum.reduceat(load[nodes] / cap, starts)
                    if sigma.max() > 1.0:
                        amount /= np.maximum(sigma, 1.0)
                        sent = amount[owner]
                        load = np.bincount(nodes, sent, graph.num_nodes)
                    heads = load.nonzero()[0]
                    hit = parent[heads]
                    routed[g_index][live] += amount
                    remaining[live] -= amount
                    np.add.at(flow, slots, sent)
                    d_value += graph.lengthen(hit, load[heads], epsilon)
            phases += 1
            arc_flow = graph.to_arc_order(flow)
            all_routed = np.concatenate(routed)
            lam = _certify(problem, arc_flow, routed)
            if d_value < 1.0:
                # A whole phase: every group routed its whole demand.
                mixed = mix.add(arc_flow - start_flow,
                                all_routed - start_routed)
                if mixed > lam:
                    mix_wins += 1
                    lam = mixed
            start_flow, start_routed = arc_flow, all_routed
            lam_lo = max(lam_lo, lam)
            lam_hi = min(lam_hi, bound(graph.to_arc_order(graph.lengths),
                                       arc_flow))
            if lam_lo >= (1 - epsilon) * lam_hi:
                obs.incr("mcf.approx.gap_stops")
                break
            if d_value >= 1.0:
                break

    obs.incr("mcf.approx.solves")
    obs.incr("mcf.approx.phases", phases)
    obs.incr("mcf.approx.dijkstra_calls", trees)
    obs.incr("mcf.approx.bound_searches", bound.searches)
    obs.incr("mcf.approx.mix_wins", mix_wins)
    obs.set_gauge("mcf.approx.last_objective", lam_lo)
    obs.set_gauge("mcf.approx.last_upper_bound", lam_hi)
    return MCFResult(throughput=lam_lo, method="approx-gk",
                     upper_bound=lam_hi)


def _phase_budget(epsilon: float, num_arcs: int) -> int:
    """Theoretical upper bound on the number of phases (safety net)."""
    return int(math.ceil(2 * math.log((1 + epsilon) * num_arcs) / (epsilon**2))) + 2


def _certify(
    problem: FlowProblem, flow: np.ndarray, routed: List[np.ndarray]
) -> float:
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
    return lam


class PhaseMix:
    """A convex mix of whole phases: a second feasible flow to certify.

    A whole phase routes every demand once, so any convex mix of whole
    phases is a flow that routes every demand once as well.  The mix
    keeps each arc's utilization and each commodity's routed share of
    its demand.  :meth:`add` moves it toward a new phase by the step
    that minimizes its worst utilization, so the mix is never more
    loaded than either side.  Flows are in the problem's arc order and
    routed amounts in its groups' sink order, concatenated, so every
    caller that passes the same arrays gets the same mix, to the bit.
    """

    def __init__(self, problem: FlowProblem) -> None:
        self._cap = problem.arc_cap
        self._demands = np.concatenate([g.demands for g in problem.groups])
        self.utilization = np.zeros(problem.num_arcs)
        self.rates = np.zeros(self._demands.size)
        #: Whole phases mixed in so far.
        self.phases = 0

    def add(self, flow: np.ndarray, routed: np.ndarray) -> float:
        """Mix in one whole phase's arc flow and routed amounts, and
        return the mix's :attr:`certificate`."""
        utilization = flow / self._cap
        rates = routed / self._demands
        if self.phases:
            gamma = _mix_step(self.utilization, utilization)
            utilization = (1 - gamma) * self.utilization + gamma * utilization
            rates = (1 - gamma) * self.rates + gamma * rates
        self.utilization, self.rates = utilization, rates
        self.phases += 1
        return self.certificate

    @property
    def worst(self) -> float:
        """The mix's worst arc utilization."""
        return float(self.utilization.max())

    @property
    def certificate(self) -> float:
        """The mix scaled to its worst arc, up or down: its worst rate."""
        return float(self.rates.min()) / self.worst


def _mix_step(mix: np.ndarray, phase: np.ndarray) -> float:
    """The γ ∈ [0, 1] that minimizes max((1 − γ)·mix + γ·phase).

    The maximum is convex and piecewise linear in γ, so bisect on the
    sign of its slope at the argmax arc, then keep the best of the
    final bracket's ends and of 0 and 1.  Sixty halvings leave a
    bracket narrower than a double's resolution near 1.
    """
    def worst(gamma: float) -> float:
        return float(((1 - gamma) * mix + gamma * phase).max())

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        top = ((1 - mid) * mix + mid * phase).argmax()
        if phase[top] > mix[top]:
            hi = mid
        else:
            lo = mid
    return min((0.0, lo, hi, 1.0), key=worst)


def _slot_matrix(problem: FlowProblem, weights: np.ndarray):
    """The arcs as a CSR matrix of ``weights``, and each slot's arc.

    A CSR slot is an arc's position in the matrix, sorted by (tail,
    head); ``slot_arc[j]`` is the problem's arc at slot ``j``.
    """
    import scipy.sparse as sp

    n = problem.num_nodes
    slot_arc = np.lexsort((problem.arc_dst, problem.arc_src))
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(problem.arc_src, minlength=n), out=indptr[1:])
    matrix = sp.csr_matrix(
        (weights[slot_arc], problem.arc_dst[slot_arc].astype(np.int32),
         indptr),
        shape=(n, n),
    )
    return matrix, slot_arc


class DualBound:
    """Weak-duality upper bounds on the concurrent throughput λ*.

    For any arc lengths ``l ≥ 0``, a flow at rate λ sends each unit of
    demand ``d_g(t)`` along paths at least ``dist_l(s_g, t)`` long, so
    ``λ · α(l) ≤ Σ_a f(a)·l(a) ≤ D(l)`` with
    ``α(l) = Σ_g Σ_t d_g(t) · dist_l(s_g, t)`` and
    ``D(l) = Σ_a cap(a)·l(a)``.  With unit lengths this is the
    path-length bound of Singla et al. (PAPERS.md).

    A call evaluates ``D(l) / α(l)`` for the lengths it is given and for
    one cut length function per :data:`BOUND_THRESHOLDS` entry, and
    returns the smallest.  Each evaluation is one multi-source Dijkstra
    from every group's source; :attr:`searches` counts the trees.
    Lengths and flows are in the problem's arc order, so every caller
    that passes the same arrays gets the same bound, to the bit.
    """

    def __init__(self, problem: FlowProblem) -> None:
        from scipy.sparse.csgraph import dijkstra

        self._dijkstra = dijkstra
        self._cap = problem.arc_cap
        self._matrix, self._order = _slot_matrix(problem, problem.arc_cap)
        groups = problem.groups
        self._sources = np.array([g.source for g in groups])
        self._rows = np.repeat(np.arange(len(groups)),
                               [len(g.sinks) for g in groups])
        self._sinks = np.concatenate([g.sinks for g in groups])
        self._demands = np.concatenate([g.demands for g in groups])
        #: The cut bounds of :func:`concurrent_upper_bound`, free of lengths.
        self.cut_bound = concurrent_upper_bound(problem)
        self.searches = 0

    def __call__(self, lengths: np.ndarray, flow: np.ndarray) -> float:
        """Smallest bound over ``lengths`` and the cut lengths of ``flow``."""
        best = self._ratio(lengths)
        utilization = flow / self._cap
        peak = float(utilization.max())
        for tau in BOUND_THRESHOLDS:
            cut = np.where(utilization >= tau * peak, 1.0, _SHORT_ARC)
            best = min(best, self._ratio(cut))
        return best

    def _ratio(self, lengths: np.ndarray) -> float:
        """``D(l) / α(l)`` for one length function."""
        self._matrix.data[:] = lengths[self._order]
        dist = self._dijkstra(self._matrix, directed=True,
                              indices=self._sources)
        self.searches += len(self._sources)
        alpha = float((dist[self._rows, self._sinks] * self._demands).sum())
        return float((lengths * self._cap).sum()) / alpha


class _SlotGraph:
    """The arc graph in CSR slot order, with the lengths as its weights.

    The matrix's ``data`` *is* the length array, so a length
    bump is visible to the next :func:`scipy.sparse.csgraph.dijkstra`
    without copying anything.  Every per-arc array here is in slot
    order, and ``slot_arc`` maps a slot back to the problem's arc.

    Antiparallel arc pairs are unique per (src, dst) because parallel
    cables fold into single capacities upstream, so every arc owns
    exactly one slot.
    """

    def __init__(self, problem: FlowProblem, lengths: np.ndarray) -> None:
        from scipy.sparse.csgraph import dijkstra

        self._dijkstra = dijkstra
        n = self.num_nodes = problem.num_nodes
        self._matrix, self.slot_arc = _slot_matrix(problem, lengths)
        tails = problem.arc_src[self.slot_arc]
        heads = problem.arc_dst[self.slot_arc]
        self.lengths: np.ndarray = self._matrix.data
        self.cap = problem.arc_cap[self.slot_arc]
        # Sorted (tail, head) keys: the slot of arc u->v is where
        # ``u * n + v`` falls among them.
        self._width = np.int64(n)
        self._slot_key = tails * self._width + heads
        if (np.diff(self._slot_key) == 0).any():
            raise SolverError("parallel arcs must fold into one capacity")
        self._parent = np.zeros(n, dtype=np.intp)

    def shortest_path_tree(
        self, source: int, sinks: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """One C Dijkstra from ``source``, and every sink's path in it.

        Returns ``(owner, starts, nodes, parent)``.  Pair ``j`` says
        tree node ``nodes[j]`` lies on the path to ``sinks[owner[j]]``;
        the pairs run sink-major, each path from its sink up to (not
        including) the source, and sink ``t``'s pairs start at
        ``starts[t]``.  ``parent[v]`` is the slot of node ``v``'s tree
        arc, set only for the nodes on the sinks' paths.  None when a
        sink is unreachable.
        """
        _, pred = self._dijkstra(self._matrix, directed=True,
                                 indices=source, return_predecessors=True)
        step = pred[sinks]
        if step.min() < 0:
            return None
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
        starts = np.searchsorted(owner, np.arange(sinks.size))
        nodes = walk[below]
        parent = self._parent
        parent[nodes] = np.searchsorted(self._slot_key,
                                        pred[nodes] * self._width + nodes)
        return owner, starts, nodes, parent

    def lengthen(
        self, hit: np.ndarray, sent: np.ndarray, epsilon: float
    ) -> float:
        """Bump the lengths of one tree's arcs; returns the growth of D(l).

        ``sent[j]`` is the flow the tree sent over slot ``hit[j]``.
        Arcs the tree did not use keep their lengths exactly (a bump of
        1.0), so only used slots are touched.  The growth is summed over
        an array in the problem's arc order, because a float sum's
        rounding depends on its order.
        """
        cap = self.cap[hit]
        bump = 1.0 + epsilon * sent / cap
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
