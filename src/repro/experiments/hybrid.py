"""Section 3.4: hybrid flat-tree — zone isolation under shared core.

The paper builds flat-tree with 30 Pods, splits it into a global-random
zone and a local-random zone at proportions 10%..90%, gives each zone
the complete-network workload of §3.3, and observes that "regardless of
the proportion, each zone constantly achieves the same throughput as
that of the corresponding complete network under the same locality
setting".

Reproduction: for each proportion we solve three concurrent-flow
problems on the hybrid network — the global zone's broadcast workload
alone, the local zone's all-to-all workload alone, and both together —
and compare against the complete network in the corresponding
homogeneous mode.  Zone isolation holds when the combined solve matches
the per-zone solves (no cross-zone interference) and each per-zone λ
matches its complete-network reference.

Scale substitution: the paper's k = 30 instance needs a commercial LP
solver; the default here is k = 8 (the claim is about *isolation*, not
absolute scale), overridable via ``REPRO_HYBRID_K``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.conversion import Mode, convert, hybrid_configs
from repro.core.design import FlatTreeDesign
from repro.core.flattree import FlatTree
from repro.core.zones import proportional_layout
from repro.experiments.common import ExperimentResult, throughput_of
from repro.mcf.commodities import Commodity
from repro.traffic.clusters import (
    ALL_TO_ALL_CLUSTER_SIZE,
    BROADCAST_CLUSTER_SIZE,
    make_clusters,
)
from repro.traffic.patterns import all_to_all_commodities, broadcast_commodities

DEFAULT_FRACTIONS: Sequence[float] = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)


def default_hybrid_k() -> int:
    return int(os.environ.get("REPRO_HYBRID_K", "8"))


def _continuous_members(servers: List[int], cluster_size: int) -> List[int]:
    """Continuous placement of wrapped cluster members over a server set."""
    clusters = max(1, len(servers) // cluster_size)
    total = clusters * cluster_size
    return [servers[i % len(servers)] for i in range(total)]


def zone_broadcast_workload(
    servers: List[int], rng: random.Random,
    cluster_size: int = BROADCAST_CLUSTER_SIZE,
) -> List[Commodity]:
    """§3.3 broadcast workload confined to one zone's servers (locality)."""
    members = _continuous_members(servers, cluster_size)
    clusters = make_clusters(members, cluster_size, rng, with_hotspots=True)
    return broadcast_commodities(clusters)


def zone_all_to_all_workload(
    servers: List[int], rng: random.Random,
    cluster_size: int = ALL_TO_ALL_CLUSTER_SIZE,
) -> List[Commodity]:
    """§3.3 all-to-all workload confined to one zone's servers (locality)."""
    members = _continuous_members(servers, cluster_size)
    clusters = make_clusters(members, cluster_size, rng)
    return all_to_all_commodities(clusters)


@dataclass
class HybridRow:
    """One proportion point of the §3.4 study."""

    fraction_global: float
    global_zone: float
    global_reference: float
    local_zone: float
    local_reference: float
    combined: float

    @property
    def isolated(self) -> bool:
        """Zones are isolated when sharing costs (almost) nothing."""
        floor = min(self.global_zone, self.local_zone)
        return self.combined >= 0.99 * floor


def run_hybrid(
    k: Optional[int] = None,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    seed: int = 0,
    solver: Optional[str] = None,
) -> ExperimentResult:
    """Reproduce the §3.4 hybrid study at parameter ``k``."""
    k = k or default_hybrid_k()
    design = FlatTreeDesign.for_fat_tree(k)
    params = design.params
    rng = random.Random(seed)

    # Complete-network references, per §3.3 with zone-local workloads of
    # the full server population.
    all_servers = list(range(params.num_servers))
    global_ref_net = convert(FlatTree(design), Mode.GLOBAL_RANDOM)
    global_ref = throughput_of(
        global_ref_net,
        zone_broadcast_workload(all_servers, random.Random(seed)),
        force=solver,
    )
    local_ref_net = convert(FlatTree(design), Mode.LOCAL_RANDOM)
    local_ref = throughput_of(
        local_ref_net,
        zone_all_to_all_workload(all_servers, random.Random(seed)),
        force=solver,
    )

    result = ExperimentResult(
        experiment=f"hybrid (section 3.4), k={k}",
        x_label="fraction global",
        y_label="throughput (lambda)",
    )
    s_global = result.new_series("global zone")
    s_gref = result.new_series("global reference")
    s_local = result.new_series("local zone")
    s_lref = result.new_series("local reference")
    s_comb = result.new_series("combined")

    for fraction in fractions:
        row = hybrid_point(
            design, fraction, seed=seed, solver=solver,
            global_reference=global_ref, local_reference=local_ref,
        )
        s_global.add(fraction, row.global_zone)
        s_gref.add(fraction, row.global_reference)
        s_local.add(fraction, row.local_zone)
        s_lref.add(fraction, row.local_reference)
        s_comb.add(fraction, row.combined)
    result.notes.append(
        "paper claim: each zone matches its complete-network reference at "
        "every proportion; combined ~ min(zones) means no interference"
    )
    return result


def hybrid_point(
    design: FlatTreeDesign,
    fraction_global: float,
    seed: int = 0,
    solver: Optional[str] = None,
    global_reference: Optional[float] = None,
    local_reference: Optional[float] = None,
) -> HybridRow:
    """Solve one proportion point of the hybrid study."""
    layout = proportional_layout(design.params, fraction_global)
    ft = FlatTree(design)
    net = ft.materialize(hybrid_configs(ft, layout.pod_modes()),
                         name="flat-tree[hybrid]")

    g_servers = layout.zone_servers("global")
    l_servers = layout.zone_servers("local")
    g_load = zone_broadcast_workload(g_servers, random.Random(seed))
    l_load = zone_all_to_all_workload(l_servers, random.Random(seed))

    lam_g = throughput_of(net, g_load, force=solver)
    lam_l = throughput_of(net, l_load, force=solver)
    lam_combined = throughput_of(net, g_load + l_load, force=solver)
    return HybridRow(
        fraction_global=fraction_global,
        global_zone=lam_g,
        global_reference=(
            global_reference if global_reference is not None else float("nan")
        ),
        local_zone=lam_l,
        local_reference=(
            local_reference if local_reference is not None else float("nan")
        ),
        combined=lam_combined,
    )
