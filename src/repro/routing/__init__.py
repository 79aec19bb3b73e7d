"""Routing schemes: two-level, k-shortest paths, SDN programs."""

from repro.routing.base import Path, RoutingTable
from repro.routing.ksp import (
    DEFAULT_K,
    build_ksp_table,
    k_shortest_paths,
    path_stretch,
)
from repro.routing.sdn import SdnProgram
from repro.routing.twolevel import two_level_hops, two_level_route

__all__ = [
    "DEFAULT_K",
    "Path",
    "RoutingTable",
    "SdnProgram",
    "build_ksp_table",
    "k_shortest_paths",
    "path_stretch",
    "two_level_hops",
    "two_level_route",
]
