"""Max-flow helpers: cut-based bounds and single-pair flows.

Concurrent-flow optima are expensive; these helpers provide cheap upper
bounds (used as sanity rails in tests and as fast previews in the CLI)
and exact max-flows between switch sets built on
:func:`scipy.sparse.csgraph.maximum_flow`.
"""

from __future__ import annotations

from typing import Collection, Dict

import numpy as np

from repro.errors import SolverError
from repro.mcf.commodities import FlowProblem
from repro.topology.elements import Network, SwitchId

#: Capacities are scaled to integers for csgraph's integer max-flow.
_FLOW_SCALE = 10_000
#: Scaled capacity of a super node's arcs: it dwarfs any fabric cut (total
#: fabric capacity stays far below it) and fits scipy's int32 capacities.
_UNBOUNDED = 1_000_000_000


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


def max_flow(net: Network, sources: Collection[SwitchId],
             sinks: Collection[SwitchId]) -> float:
    """Exact max flow from the switches ``sources`` to ``sinks``.

    A super source feeds every source and every sink drains into a
    super sink.  The fabric's directed links carry their cable-bundle
    capacities, scaled to integers, so both directions of a cable may be
    used simultaneously (full-duplex model).
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import maximum_flow

    index = net.link_index()
    tail, head, capacity = index.links
    n = len(index.switch_ids)
    feeds = [index.switch_ids[s] for s in sources]
    drains = [index.switch_ids[s] for s in sinks]
    rows = np.concatenate((tail, np.full(len(feeds), n), drains))
    cols = np.concatenate((head, feeds, np.full(len(drains), n + 1)))
    caps = np.concatenate((np.rint(capacity * _FLOW_SCALE),
                           np.full(len(feeds) + len(drains), _UNBOUNDED)))
    graph = sp.csr_matrix((caps.astype(np.int32), (rows, cols)),
                          shape=(n + 2, n + 2))
    return maximum_flow(graph, n, n + 1).flow_value / _FLOW_SCALE


def single_pair_max_flow(net: Network, src: SwitchId, dst: SwitchId) -> float:
    """Exact max flow between two switches over the fabric."""
    if src == dst:
        raise SolverError("source and destination switches coincide")
    return max_flow(net, [src], [dst])
