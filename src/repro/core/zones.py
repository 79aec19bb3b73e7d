"""Hybrid-mode zones (paper §3.4).

"Flat-tree can work in hybrid mode with different topologies each in a
number of Pods.  Workloads placed in different zones share the network
core."  A :class:`ZoneLayout` partitions the Pods into named zones, each
with an operating mode; it compiles to the per-Pod mode map that
:func:`repro.core.conversion.hybrid_configs` consumes, and exposes the
zone-local server populations that workload generators need.

Zones of contiguous Pods maximize usable side bundles in global-random
zones (a 6-port converter needs its *adjacent-Pod* peer in the same
mode); :func:`proportional_layout` therefore slices the Pod line
contiguously, mirroring the paper's "varying proportions at an interval
of 10%" experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.core.conversion import Mode
from repro.topology.clos import ClosParams


@dataclass(frozen=True)
class Zone:
    """A named set of Pods sharing one operating mode."""

    name: str
    mode: Mode
    pods: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.pods:
            raise ConfigurationError(f"zone {self.name!r} has no Pods")
        if len(set(self.pods)) != len(self.pods):
            raise ConfigurationError(f"zone {self.name!r} repeats Pods")


@dataclass(frozen=True)
class ZoneLayout:
    """A complete partition of a network's Pods into zones."""

    params: ClosParams
    zones: Tuple[Zone, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        covered: List[int] = []
        for zone in self.zones:
            covered.extend(zone.pods)
        expected = set(range(self.params.pods))
        if sorted(covered) != sorted(expected) or len(covered) != len(expected):
            raise ConfigurationError(
                "zones must partition the Pods exactly once each"
            )
        names = [z.name for z in self.zones]
        if len(set(names)) != len(names):
            raise ConfigurationError("zone names must be unique")

    def pod_modes(self) -> Dict[int, Mode]:
        """The per-Pod mode map for the conversion engine."""
        modes: Dict[int, Mode] = {}
        for zone in self.zones:
            for pod in zone.pods:
                modes[pod] = zone.mode
        return modes

    def zone(self, name: str) -> Zone:
        for z in self.zones:
            if z.name == name:
                return z
        raise ConfigurationError(f"no zone named {name!r}")

    def zone_servers(self, name: str) -> List[int]:
        """All server ids whose Pod belongs to the named zone."""
        out: List[int] = []
        for pod in self.zone(name).pods:
            out.extend(self.params.pod_servers(pod))
        return out

    def zone_pod_groups(self, name: str) -> List[Sequence[int]]:
        """Per-Pod server groups of one zone (for in-Pod metrics)."""
        return [self.params.pod_servers(p) for p in self.zone(name).pods]


def proportional_layout(
    params: ClosParams,
    fraction_global: float,
    global_name: str = "global",
    local_name: str = "local",
) -> ZoneLayout:
    """Two contiguous zones: the paper's §3.4 proportion sweep.

    The first ``round(fraction_global * pods)`` Pods run approximated
    global random graph; the rest run approximated local random graphs.
    ``fraction_global`` must leave at least one Pod on each side.
    """
    pods = params.pods
    count = round(fraction_global * pods)
    if count < 1 or count > pods - 1:
        raise ConfigurationError(
            f"fraction {fraction_global} leaves an empty zone "
            f"({count} of {pods} Pods global)"
        )
    return ZoneLayout(
        params=params,
        zones=(
            Zone(global_name, Mode.GLOBAL_RANDOM, tuple(range(count))),
            Zone(local_name, Mode.LOCAL_RANDOM, tuple(range(count, pods))),
        ),
    )


def uniform_layout(params: ClosParams, mode: Mode, name: str = "all") -> ZoneLayout:
    """A single zone covering the whole network (degenerate hybrid)."""
    return ZoneLayout(
        params=params,
        zones=(Zone(name, mode, tuple(range(params.pods))),),
    )
