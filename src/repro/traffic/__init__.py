"""Workloads: clusters, placement policies, traffic patterns."""

from repro.traffic.clusters import (
    ALL_TO_ALL_CLUSTER_SIZE,
    BROADCAST_CLUSTER_SIZE,
    Cluster,
    cluster_count,
    make_clusters,
)
from repro.traffic.placement import (
    place_continuous,
    place_random_global,
    place_random_in_pods,
    placement_by_name,
    pod_groups,
)
from repro.traffic.patterns import (
    all_to_all_commodities,
    broadcast_commodities,
    incast_commodities,
    permutation_commodities,
    uniform_commodities,
)

__all__ = [
    "ALL_TO_ALL_CLUSTER_SIZE",
    "BROADCAST_CLUSTER_SIZE",
    "Cluster",
    "all_to_all_commodities",
    "broadcast_commodities",
    "cluster_count",
    "incast_commodities",
    "make_clusters",
    "permutation_commodities",
    "place_continuous",
    "place_random_global",
    "place_random_in_pods",
    "placement_by_name",
    "pod_groups",
    "uniform_commodities",
]
