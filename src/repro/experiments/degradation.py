"""Extension experiment: throughput degradation under link failures.

The paper's §5 motivates convertibility for "self-recovery of the
topology from failures".  A prerequisite question the paper leaves
unexplored: how *gracefully* does each topology's capacity degrade as
random links fail?  (Random graphs are known to degrade smoothly;
hierarchical Clos networks lose whole core subtrees.)

For each failure fraction, a fixed broadcast workload (Figure 7 style)
is re-solved on the topology with that fraction of switch-switch cables
removed (failures that disconnect the workload's switches count as
throughput 0 for the affected draw).  Reported per topology: mean λ over
failure draws, normalized by the failure-free λ.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.errors import ReproError
from repro.core.conversion import Mode
from repro.experiments.common import ExperimentResult, throughput_of
from repro.experiments.common import baseline_networks, flat_tree_network
from repro.experiments.fig7_broadcast import broadcast_workload
from repro.topology.clos import fat_tree_params
from repro.topology.elements import Network

DEFAULT_FRACTIONS: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.3)


def degrade(net: Network, fraction: float, rng: random.Random) -> Network:
    """A copy of ``net`` with ``fraction`` of its cables removed."""
    if not 0 <= fraction < 1:
        raise ReproError(f"failure fraction {fraction} out of [0, 1)")
    clone = net.copy()
    cables: List = []
    for u, v, _capacity, mult in clone.bundles():
        cables.extend([(u, v)] * mult)
    kill = rng.sample(cables, int(round(fraction * len(cables))))
    for u, v in kill:
        clone.remove_cable(u, v)
    return clone


def run_degradation(
    k: int = 8,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    draws: int = 3,
    seed: int = 0,
    solver: Optional[str] = None,
) -> ExperimentResult:
    """Sweep failure fractions over the main topologies at one k."""
    params = fat_tree_params(k)
    workload = broadcast_workload(params, "locality", random.Random(seed))
    nets: Dict[str, Network] = {
        "fat-tree": baseline_networks(k, seed)["fat-tree"],
        "flat-tree": flat_tree_network(k, Mode.GLOBAL_RANDOM),
        "random graph": baseline_networks(k, seed)["random graph"],
    }
    result = ExperimentResult(
        experiment=f"extension: throughput under random link failures, k={k}",
        x_label="failed link fraction",
        y_label="normalized throughput (mean over draws)",
    )
    for name, net in nets.items():
        series = result.new_series(name)
        baseline = throughput_of(net, workload, force=solver)
        if baseline <= 0:
            raise ReproError(f"{name}: zero failure-free throughput")
        for fraction in fractions:
            total = 0.0
            for draw in range(draws):
                rng = random.Random(seed * 1000 + draw * 17 + int(fraction * 100))
                degraded = degrade(net, fraction, rng)
                try:
                    lam = throughput_of(degraded, workload, force=solver)
                except Exception as exc:
                    # A heavily-degraded draw can disconnect the
                    # workload; score it as zero throughput, audibly.
                    obs.event(
                        "experiments.degradation.solver_failure",
                        topology=name,
                        fraction=fraction,
                        draw=draw,
                        reason=str(exc) or type(exc).__name__,
                    )
                    lam = 0.0
                total += lam
            series.add(fraction, (total / draws) / baseline)
    result.notes.append(
        "expected: the random-graph-like topologies degrade smoothly; "
        "fat-tree loses proportionally more per failed link"
    )
    return result
