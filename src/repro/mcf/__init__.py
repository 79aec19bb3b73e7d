"""Maximum concurrent multi-commodity flow: exact LP and FPTAS."""

from repro.mcf.commodities import (
    Commodity,
    DemandGroup,
    FlowProblem,
    build_flow_problem,
    commodity_count,
)
from repro.mcf.exact import MCFResult, solve_concurrent_exact
from repro.mcf.approx import solve_concurrent_approx
from repro.mcf.maxflow import (
    concurrent_upper_bound,
    single_pair_max_flow,
    sink_cut_bound,
    source_cut_bound,
)

__all__ = [
    "Commodity",
    "DemandGroup",
    "FlowProblem",
    "MCFResult",
    "build_flow_problem",
    "commodity_count",
    "concurrent_upper_bound",
    "single_pair_max_flow",
    "sink_cut_bound",
    "solve_concurrent_approx",
    "solve_concurrent_exact",
    "source_cut_bound",
]
