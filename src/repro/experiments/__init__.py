"""Paper experiments: one module per figure/table (see DESIGN.md §4)."""

from repro.experiments.common import (
    DEFAULT_APL_KS,
    DEFAULT_FLOW_KS,
    PAPER_KS,
    ExperimentResult,
    Series,
    baseline_networks,
    flat_tree_network,
    ks_from_env,
    solve_throughput,
    throughput_of,
)
from repro.experiments.degradation import degrade, run_degradation
from repro.experiments.fct import run_fct
from repro.experiments.fig5_pathlength import run_fig5
from repro.experiments.fig6_pod_pathlength import run_fig6
from repro.experiments.fig7_broadcast import run_fig7
from repro.experiments.fig8_alltoall import run_fig8
from repro.experiments.hybrid import HybridRow, hybrid_point, run_hybrid
from repro.experiments.report import (
    Report,
    ReportScale,
    generate_report,
    write_report,
)

__all__ = [
    "DEFAULT_APL_KS",
    "DEFAULT_FLOW_KS",
    "ExperimentResult",
    "HybridRow",
    "PAPER_KS",
    "Report",
    "ReportScale",
    "Series",
    "baseline_networks",
    "degrade",
    "flat_tree_network",
    "hybrid_point",
    "ks_from_env",
    "run_degradation",
    "run_fct",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_hybrid",
    "generate_report",
    "write_report",
    "solve_throughput",
    "throughput_of",
]
