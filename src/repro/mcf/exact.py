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
from typing import Optional

import numpy as np

from repro import obs
from repro.errors import SolverError
from repro.mcf.commodities import FlowProblem

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
    shape ``(num_groups, num_arcs)``.  ``upper_bound`` is a proven upper
    bound on the optimum: λ itself for the exact LP.
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

    A demand between disconnected components is not an error: it forces
    the optimum λ = 0, which is returned as such.  Raises
    :class:`SolverError` only on solver-level failure (λ = 0 with zero
    flow is always feasible, so genuine infeasibility cannot occur).
    """
    import scipy.sparse as sp
    from scipy.optimize import OptimizeWarning

    num_arcs = problem.num_arcs
    num_nodes = problem.num_nodes
    num_groups = problem.num_groups
    if num_groups == 0:
        raise SolverError("no demand groups to solve")
    num_vars = num_groups * num_arcs + 1
    lam_col = num_vars - 1

    # Equality block: flow conservation per (group, node), with -λ·b term.
    rows = []
    cols = []
    vals = []
    for g_index, group in enumerate(problem.groups):
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

    # Capacity block: Σ_g f_g(a) ≤ cap(a).
    ub_rows = np.tile(np.arange(num_arcs), num_groups)
    ub_cols = np.arange(num_groups * num_arcs)
    a_ub = sp.csr_matrix(
        (np.ones(num_groups * num_arcs), (ub_rows, ub_cols)),
        shape=(num_arcs, num_vars),
    )
    b_ub = problem.arc_cap.astype(np.float64)

    c = np.zeros(num_vars)
    c[lam_col] = -1.0

    # Interior point is an order of magnitude faster than simplex on
    # these node-arc MCF formulations (measured: 15s vs 187s on a
    # jellyfish(k=8) all-to-all instance); without crossover it is a
    # quarter to a third faster again on Figure 8's LPs (module docstring).
    result = None
    with obs.span("mcf.exact", groups=num_groups, arcs=num_arcs), \
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
    obs.set_gauge("mcf.exact.last_objective", throughput)
    if getattr(result, "nit", None) is not None:
        obs.observe("mcf.exact.iterations", int(result.nit))
    flows = None
    if return_flows:
        flows = result.x[:lam_col].reshape(num_groups, num_arcs)
    return MCFResult(throughput=throughput, method="exact-lp", flows=flows,
                     upper_bound=throughput)
