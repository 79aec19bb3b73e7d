"""Max-flow helpers: cut-based bounds and single-pair flows.

Concurrent-flow optima are expensive; these helpers provide cheap upper
bounds (used as sanity rails in tests and as fast previews in the CLI)
and an exact single-pair max-flow built on
:func:`scipy.sparse.csgraph.maximum_flow`.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.errors import SolverError
from repro.mcf.commodities import FlowProblem
from repro.topology.elements import Network, SwitchId

#: Capacities are scaled to integers for csgraph's integer max-flow.
_FLOW_SCALE = 10_000


def source_cut_bound(problem: FlowProblem) -> float:
    """λ upper bound from each group's source out-capacity.

    The concurrent rate cannot exceed (source out-capacity) / (group
    demand) for any group — a single cut, hence an upper bound.
    """
    out_cap = np.zeros(problem.num_nodes)
    np.add.at(out_cap, problem.arc_src, problem.arc_cap)
    bound = np.inf
    for g in problem.groups:
        bound = min(bound, out_cap[g.source] / g.total_demand)
    return float(bound)


def sink_cut_bound(problem: FlowProblem) -> float:
    """λ upper bound from per-sink in-capacity across all groups."""
    in_cap = np.zeros(problem.num_nodes)
    np.add.at(in_cap, problem.arc_dst, problem.arc_cap)
    demand_in: Dict[int, float] = {}
    for g in problem.groups:
        for sink, demand in zip(g.sinks, g.demands):
            demand_in[int(sink)] = demand_in.get(int(sink), 0.0) + float(demand)
    bound = np.inf
    for sink, demand in demand_in.items():
        bound = min(bound, in_cap[sink] / demand)
    return float(bound)


def concurrent_upper_bound(problem: FlowProblem) -> float:
    """Best available cheap upper bound on the concurrent throughput."""
    return min(source_cut_bound(problem), sink_cut_bound(problem))


def single_pair_max_flow(net: Network, src: SwitchId, dst: SwitchId) -> float:
    """Exact max flow between two switches over the fabric.

    Capacities are the cable-bundle capacities; both directions of a
    cable may be used simultaneously (full-duplex model).
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import maximum_flow

    if src == dst:
        raise SolverError("source and destination switches coincide")
    index = net.switch_index()
    n = len(index)
    rows, cols, vals = [], [], []
    for u, v, cap in net.edge_list():
        ui, vi = index[u], index[v]
        scaled = int(round(cap * _FLOW_SCALE))
        rows.extend((ui, vi))
        cols.extend((vi, ui))
        vals.extend((scaled, scaled))
    graph = sp.csr_matrix((vals, (rows, cols)), shape=(n, n), dtype=np.int32)
    result = maximum_flow(graph, index[src], index[dst])
    return result.flow_value / _FLOW_SCALE
