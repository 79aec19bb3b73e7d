"""repro — full reproduction of *Flat-tree: A Convertible Data Center
Network Architecture from Clos to Random Graph* (Xia & Ng, HotNets 2016).

Public API layers:

* :mod:`repro.topology` — network model and the baseline builders
  (fat-tree, Jellyfish random graph, two-stage random graph) plus graph
  metrics and audits;
* :mod:`repro.core` — the paper's contribution: converter switches,
  flat-tree Pods, Pod-core and inter-Pod wiring, the conversion engine,
  hybrid zones, (m, n) profiling, and the centralized controller;
* :mod:`repro.routing` — two-level fat-tree routing, k-shortest-paths,
  and pre-computed SDN programs;
* :mod:`repro.mcf` — maximum concurrent multi-commodity flow (exact LP
  and Garg-Könemann approximation), the paper's throughput metric;
* :mod:`repro.traffic` — cluster workloads and placement policies;
* :mod:`repro.flowsim` — flow-level fluid simulation (extension);
* :mod:`repro.experiments` — one module per paper figure/table;
* :mod:`repro.obs` — telemetry: metrics registry, span tracing, sinks
  (disabled by default; ``obs.enable()`` or the CLI's ``--telemetry``).

Quickstart::

    from repro import FlatTree, FlatTreeDesign, Mode, convert

    design = FlatTreeDesign.for_fat_tree(k=8)
    flattree = FlatTree(design)
    network = convert(flattree, Mode.GLOBAL_RANDOM)
"""

from repro import obs
from repro.core.controller import Controller, ReconfigurationPlan
from repro.core.conversion import Mode, convert
from repro.core.design import FlatTreeDesign
from repro.core.flattree import FlatTree
from repro.core.profiling import profile_mn, profiled_design
from repro.core.zones import ZoneLayout, proportional_layout
from repro.errors import (
    ConfigurationError,
    PortBudgetError,
    ReproError,
    RoutingError,
    SolverError,
    TopologyError,
    TrafficError,
    WiringError,
)
from repro.topology.clos import ClosParams, fat_tree_params
from repro.topology.elements import Network
from repro.topology.fattree import build_fat_tree
from repro.topology.jellyfish import build_jellyfish_like_fat_tree
from repro.topology.twostage import build_two_stage

__version__ = "1.0.0"

__all__ = [
    "ClosParams",
    "ConfigurationError",
    "Controller",
    "FlatTree",
    "FlatTreeDesign",
    "Mode",
    "Network",
    "PortBudgetError",
    "ReconfigurationPlan",
    "ReproError",
    "RoutingError",
    "SolverError",
    "TopologyError",
    "TrafficError",
    "WiringError",
    "ZoneLayout",
    "__version__",
    "build_fat_tree",
    "build_jellyfish_like_fat_tree",
    "build_two_stage",
    "convert",
    "fat_tree_params",
    "obs",
    "profile_mn",
    "profiled_design",
    "proportional_layout",
]
