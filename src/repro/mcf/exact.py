"""Exact maximum concurrent multi-commodity flow via sparse LP.

The paper: "We assume optimal routing and solve the maximum concurrent
multi-commodity flow problem using a linear programming solver" (§3.1,
citing Leighton & Rao).  This module formulates the source-aggregated
edge-flow LP and solves it with ``scipy.optimize.linprog`` (HiGHS).

Formulation, for demand groups ``g`` with source ``s_g`` and per-sink
demands ``d_g(t)``:

    max   λ
    s.t.  Σ_out f_g  -  Σ_in f_g  =  λ · b_g(v)      ∀ g, v
          Σ_g f_g(a)  ≤  cap(a)                      ∀ arcs a
          f ≥ 0, λ ≥ 0

where ``b_g(s_g) = Σ_t d_g(t)``, ``b_g(t) = -d_g(t)``, else 0.  Source
aggregation is exact for concurrent flow: any per-commodity solution sums
to a group solution, and a group solution decomposes back by flow
decomposition.

That is the *per-arc form*.  All-to-all demand is symmetric, and a
cable ``j`` of :func:`~repro.mcf.commodities.build_flow_problem` is the
antiparallel arc pair ``2j``, ``2j + 1`` of one capacity ``cap(j)``.  On
such a problem the *cable form* routes each unordered switch pair once
and gives each cable one capacity row:

    group g keeps only its sinks t > s_g; a group left with none drops out
    Σ_g f_g(2j) + f_g(2j + 1)  ≤  cap(j)             ∀ cables j

Its variables (one per kept group and arc, then λ), conservation rows
and λ column are those of the per-arc form, and ``_concurrent_lp``
makes both LPs.  The two forms have the same optimum λ*:

* Cable form → per-arc form.  Decompose a cable-form flow at λ into
  s → t path flows (s < t), and give commodity t → s the reverse of each
  path.  That routes every demand, since d(t, s) = d(s, t).  Arc ``2j``
  then carries what the cable-form flow put on ``2j`` plus what it put
  on ``2j + 1``, and so does arc ``2j + 1``: at most cap(j) each.
* Per-arc form → cable form.  Decompose a per-arc flow at λ into
  per-commodity flows F, and for s < t let g_st = ½ (F_st + the reverse
  of F_ts).  It carries ½ (λ·d(s, t) + λ·d(t, s)) = λ·d(s, t) from s to
  t.  Reversing a flow swaps arcs ``2j`` and ``2j + 1``, so it keeps the
  flow's total on cable ``j``, and the g_st together put on cable ``j``
  half of what F puts on its two arcs: at most ½ (cap(j) + cap(j)) =
  cap(j).

:func:`solve_concurrent_exact` takes the cable form when both conditions
hold exactly: arcs ``2j`` and ``2j + 1`` are an antiparallel pair of
equal capacity (as ``build_flow_problem`` and
:meth:`~repro.mcf.commodities.FlowProblem.reversed` build them), and
every demand s → t equals t → s, compared with ``==`` because a
tolerance could admit an asymmetric instance.  That is Figure 8's and
hybrid's all-to-all traffic.  Broadcast, incast, any other problem, and
any call with ``return_flows`` (flows are per original group) solve the
per-arc form.  On the eight seed-0 Figure 8 LPs the cable form took
35 % less time at k = 6, 46 % less at k = 8 and 53 % less at k = 10, and
λ moved by at most 7.8e-10 relative (``docs/performance.md``, "Exact LP
on cables").

Solving is a chain of three ``linprog`` attempts, each failure counted
in ``mcf.exact.method_fallbacks``:

1. HiGHS interior point with crossover off.  Crossover turns the
   interior optimum into a vertex, and took a quarter to a third of each
   Figure 8 solve; every caller reads λ, and flows need to be feasible,
   not basic.  The optimality tolerance is 1e-10, not HiGHS's 1e-8: at
   1e-8, λ drifted up to 4.5e-9 relative from the vertex answer on the
   16 Figure 8 LPs at k = 4 and 6, past the 1e-9 the pinned Figure 8
   ratios allow.  At 1e-10, for at most two more IPM iterations, the
   drift was at most 3.5e-13 there, and 9.1e-10 on the 8 LPs at k = 8
   (dual simplex is 8.9e-9 off the vertex on that LP).
2. HiGHS interior point with crossover, at HiGHS's defaults.
3. ``method="highs"``: HiGHS picks the solver.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro import obs
from repro.errors import SolverError
from repro.mcf.commodities import DemandGroup, FlowProblem

#: The solve chain, first to last: ``(method, options)`` per attempt.
#: ``linprog`` has no ``run_crossover`` parameter; it passes the option
#: to HiGHS verbatim.  The two fallbacks are plain ``linprog`` calls.
_ATTEMPTS = (
    ("highs-ipm", {"run_crossover": "off", "ipm_optimality_tolerance": 1e-10}),
    ("highs-ipm", None),
    ("highs", None),
)

#: The one warning ``linprog`` raises while forwarding ``run_crossover``.
_FORWARDED_OPTION = r"Unrecognized options detected: \{'run_crossover'"


def linprog(*args, **kwargs):
    """:func:`scipy.optimize.linprog`, imported on the first call.

    Importing this module loads no scipy; the solve pays the import.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


@dataclass
class MCFResult:
    """Outcome of a concurrent-flow solve.

    ``throughput`` is the optimal ``λ`` (rate per unit demand), or a
    feasible λ from an approximate solver.  ``flows`` (optional) has
    shape ``(num_groups, num_arcs)``, one row per group of the problem:
    they always come from the per-arc form, which a solve with
    ``return_flows`` takes whatever the problem.  ``upper_bound`` is a
    proven upper bound on the optimum: λ itself for the exact LP.
    """

    throughput: float
    method: str
    flows: Optional[np.ndarray] = None
    upper_bound: Optional[float] = None

    def utilization(self, problem: FlowProblem) -> np.ndarray:
        """Per-arc utilization of the solution (requires flows)."""
        if self.flows is None:
            raise SolverError("solve with return_flows=True for utilization")
        return self.flows.sum(axis=0) / problem.arc_cap


def solve_concurrent_exact(
    problem: FlowProblem, return_flows: bool = False
) -> MCFResult:
    """Solve the max concurrent flow LP exactly.

    A symmetric problem on full-duplex arcs solves the cable form, any
    other problem and any call with ``return_flows`` the per-arc form
    (module docstring); both give the same λ.  A demand between
    disconnected components is not an error: it forces the optimum
    λ = 0, which is returned as such.  Raises :class:`SolverError` only
    on solver-level failure (λ = 0 with zero flow is always feasible, so
    genuine infeasibility cannot occur).
    """
    from scipy.optimize import OptimizeWarning

    if problem.num_groups == 0:
        raise SolverError("no demand groups to solve")
    cable_groups = None if return_flows else _cable_groups(problem)
    arcs = np.arange(problem.num_arcs)
    if cable_groups is None:
        groups, arc_row, row_cap = problem.groups, arcs, problem.arc_cap
    else:
        groups, arc_row, row_cap = cable_groups, arcs // 2, problem.arc_cap[::2]
    c, a_ub, b_ub, a_eq, b_eq = _concurrent_lp(problem, groups, arc_row,
                                               row_cap)
    lam_col = c.shape[0] - 1

    # Interior point is an order of magnitude faster than simplex on
    # these node-arc MCF formulations (measured: 15s vs 187s on a
    # jellyfish(k=8) all-to-all instance); without crossover it is a
    # quarter to a third faster again on Figure 8's LPs (module docstring).
    result = None
    with obs.span("mcf.exact", groups=len(groups), arcs=problem.num_arcs), \
            obs.timer("mcf.exact.solve_s"):
        for method, options in _ATTEMPTS:
            with warnings.catch_warnings():
                warnings.filterwarnings(
                    "ignore", message=_FORWARDED_OPTION,
                    category=OptimizeWarning)
                result = linprog(
                    c,
                    A_ub=a_ub,
                    b_ub=b_ub,
                    A_eq=a_eq,
                    b_eq=b_eq,
                    bounds=(0, None),
                    method=method,
                    options=options,
                )
            if result.success:
                break
            obs.incr("mcf.exact.method_fallbacks")
    if result is None or not result.success:
        raise SolverError(f"concurrent-flow LP failed: {result.message}")
    throughput = float(result.x[lam_col])
    obs.incr("mcf.exact.solves")
    if cable_groups is not None:
        obs.incr("mcf.exact.cable_solves")
    obs.set_gauge("mcf.exact.last_objective", throughput)
    if getattr(result, "nit", None) is not None:
        obs.observe("mcf.exact.iterations", int(result.nit))
    flows = None
    if return_flows:
        flows = result.x[:lam_col].reshape(problem.num_groups,
                                           problem.num_arcs)
    return MCFResult(throughput=throughput, method="exact-lp", flows=flows,
                     upper_bound=throughput)


def _cable_groups(problem: FlowProblem) -> Optional[List[DemandGroup]]:
    """The cable form's groups, or ``None`` where that form does not apply.

    It applies when arcs ``2j`` and ``2j + 1`` are an antiparallel pair
    of equal capacity and every demand s → t equals t → s exactly; then
    each group keeps its sinks t > s, and a group left with none drops
    out.
    """
    src, dst, cap = problem.arc_src, problem.arc_dst, problem.arc_cap
    if (problem.num_arcs % 2
            or not np.array_equal(src[::2], dst[1::2])
            or not np.array_equal(dst[::2], src[1::2])
            or not np.array_equal(cap[::2], cap[1::2])):
        return None
    groups = problem.groups
    sources = np.repeat([g.source for g in groups],
                        [len(g.sinks) for g in groups])
    sinks = np.concatenate([g.sinks for g in groups])
    demands = np.concatenate([g.demands for g in groups])
    # Symmetric iff the (source, sink, demand) triples, sorted, equal the
    # (sink, source, demand) triples, sorted.
    forward = np.lexsort((sinks, sources))
    backward = np.lexsort((sources, sinks))
    if (not np.array_equal(sources[forward], sinks[backward])
            or not np.array_equal(sinks[forward], sources[backward])
            or not np.array_equal(demands[forward], demands[backward])):
        return None
    upper = []
    for group in groups:
        keep = group.sinks > group.source
        if keep.any():
            upper.append(DemandGroup(source=group.source,
                                     sinks=group.sinks[keep],
                                     demands=group.demands[keep]))
    return upper or None


def _concurrent_lp(problem: FlowProblem, groups: Sequence[DemandGroup],
                   arc_row: np.ndarray, row_cap: np.ndarray):
    """``(c, A_ub, b_ub, A_eq, b_eq)`` of the concurrent-flow LP.

    One flow variable per group and arc of ``problem``, then λ.  Arc
    ``a`` counts against capacity row ``arc_row[a]``, whose capacity is
    ``row_cap[arc_row[a]]``.
    """
    import scipy.sparse as sp

    num_arcs = problem.num_arcs
    num_nodes = problem.num_nodes
    num_groups = len(groups)
    num_vars = num_groups * num_arcs + 1
    lam_col = num_vars - 1

    # Equality block: flow conservation per (group, node), with -λ·b term.
    rows = []
    cols = []
    vals = []
    for g_index, group in enumerate(groups):
        row_base = g_index * num_nodes
        col_base = g_index * num_arcs
        arc_cols = col_base + np.arange(num_arcs)
        rows.append(row_base + problem.arc_src)
        cols.append(arc_cols)
        vals.append(np.ones(num_arcs))
        rows.append(row_base + problem.arc_dst)
        cols.append(arc_cols)
        vals.append(-np.ones(num_arcs))
        # -λ·b(v): source row gets -total_demand·λ, sinks +d(t)·λ, moved
        # to the LHS as coefficients on the λ column.
        rows.append(np.asarray([row_base + group.source]))
        cols.append(np.asarray([lam_col]))
        vals.append(np.asarray([-group.total_demand]))
        rows.append(row_base + group.sinks)
        cols.append(np.full(len(group.sinks), lam_col))
        vals.append(group.demands)
    a_eq = sp.csr_matrix(
        (
            np.concatenate(vals),
            (np.concatenate(rows), np.concatenate(cols)),
        ),
        shape=(num_groups * num_nodes, num_vars),
    )
    b_eq = np.zeros(num_groups * num_nodes)

    # Capacity block: Σ_g f_g(a) ≤ cap(row), over the arcs of each row.
    a_ub = sp.csr_matrix(
        (np.ones(num_groups * num_arcs),
         (np.tile(arc_row, num_groups), np.arange(num_groups * num_arcs))),
        shape=(len(row_cap), num_vars),
    )
    b_ub = row_cap.astype(np.float64)

    c = np.zeros(num_vars)
    c[lam_col] = -1.0
    return c, a_ub, b_ub, a_eq, b_eq
