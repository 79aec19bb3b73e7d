"""Figure 6: average path length of server pairs within each Pod.

Flat-tree runs as approximated local random graphs per Pod and is
compared against fat-tree, a global random graph, and the two-stage
random graph.  Expected order (paper §3.2):

    flat-tree < two-stage random graph < fat-tree < random graph

("Surprisingly, it outperforms two-stage random graph" — the regular
Clos edge-aggregation links beat pure randomness for in-Pod pairs.)
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.conversion import Mode
from repro.experiments.common import (
    DEFAULT_APL_KS,
    ExperimentResult,
    baseline_networks,
    flat_tree_network,
    ks_from_env,
)
from repro.topology.clos import fat_tree_params
from repro.topology.stats import average_within_group_path_length
from repro.traffic import pod_groups


def run_fig6(
    ks: Optional[Sequence[int]] = None, seed: int = 0
) -> ExperimentResult:
    """Reproduce Figure 6 over the given k sweep."""
    ks = ks or ks_from_env(DEFAULT_APL_KS)
    result = ExperimentResult(
        experiment="fig6: average path length within Pods",
        x_label="k",
        y_label="average path length in Pods (hops)",
    )
    flat = result.new_series("flat-tree")
    fat = result.new_series("fat-tree")
    rnd = result.new_series("random graph")
    two = result.new_series("two-stage random graph")
    for k in ks:
        params = fat_tree_params(k)
        groups = pod_groups(params)
        baselines = baseline_networks(k, seed=seed)
        flat.add(
            k,
            average_within_group_path_length(
                flat_tree_network(k, Mode.LOCAL_RANDOM), groups
            ),
        )
        fat.add(
            k,
            average_within_group_path_length(baselines["fat-tree"], groups),
        )
        rnd.add(
            k,
            average_within_group_path_length(
                baselines["random graph"], groups
            ),
        )
        two.add(
            k,
            average_within_group_path_length(baselines["two-stage"], groups),
        )
    result.notes.append(
        "paper shape: flat-tree < two-stage < fat-tree < random graph"
    )
    return result
