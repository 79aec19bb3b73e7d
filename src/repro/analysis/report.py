"""Topology comparison reports: one table summarizing a set of networks.

Experiment drivers and the examples want a quick "how do these networks
compare structurally" answer without running the full figure pipelines.
:func:`compare_networks` computes the headline metrics for each network
— average path length, diameter, server spread by layer, bisection
estimate — and renders them side by side.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.cuts import random_bisection_bandwidth
from repro.topology.elements import Network
from repro.topology.stats import (
    average_server_path_length,
    server_counts_by_kind,
    switch_distances,
)


@dataclass
class TopologySummary:
    """Headline structural metrics of one network."""

    name: str
    switches: int
    servers: int
    cables: int
    average_path_length: float
    diameter: int
    bisection: float
    servers_by_kind: Dict[str, int]


def summarize(
    net: Network,
    bisection_trials: int = 4,
    rng: Optional[random.Random] = None,
) -> TopologySummary:
    """Compute a :class:`TopologySummary` for one network."""
    dist, _ids = switch_distances(net)
    finite = dist[np.isfinite(dist)]
    return TopologySummary(
        name=net.name,
        switches=net.num_switches,
        servers=net.num_servers,
        cables=net.num_cables,
        average_path_length=average_server_path_length(net),
        diameter=int(finite.max()),
        bisection=random_bisection_bandwidth(
            net, trials=bisection_trials, rng=rng or random.Random(0)
        ),
        servers_by_kind=server_counts_by_kind(net),
    )


def compare_networks(
    networks: List[Network],
    bisection_trials: int = 4,
    seed: int = 0,
) -> str:
    """Render a side-by-side comparison table for several networks."""
    summaries = [
        summarize(net, bisection_trials, random.Random(seed))
        for net in networks
    ]
    rows = [
        ("switches", lambda s: str(s.switches)),
        ("servers", lambda s: str(s.servers)),
        ("cables", lambda s: str(s.cables)),
        ("avg path length", lambda s: f"{s.average_path_length:.3f}"),
        ("diameter", lambda s: str(s.diameter)),
        ("bisection (est)", lambda s: f"{s.bisection:.1f}"),
        (
            "servers by layer",
            lambda s: ",".join(
                f"{kind}:{count}"
                for kind, count in sorted(s.servers_by_kind.items())
            ),
        ),
    ]
    name_width = max(len("metric"), *(len(r[0]) for r in rows))
    col_widths = [
        max(len(s.name), *(len(fn(s)) for _label, fn in rows))
        for s in summaries
    ]
    header = "  ".join(
        ["metric".ljust(name_width)]
        + [s.name.rjust(w) for s, w in zip(summaries, col_widths)]
    )
    lines = [header, "-" * len(header)]
    for label, fn in rows:
        lines.append(
            "  ".join(
                [label.ljust(name_width)]
                + [fn(s).rjust(w) for s, w in zip(summaries, col_widths)]
            )
        )
    return "\n".join(lines)
