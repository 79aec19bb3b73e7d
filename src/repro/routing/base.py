"""Routing abstractions: paths, path sets, routing tables.

The control plane (paper §2.6) "adopt[s] the suggested routing schemes
for each network topology": two-level routing for Clos, k-shortest paths
for the approximated random graphs, optionally compiled to pre-computed
SDN rules.  This module defines the shared vocabulary.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import RoutingError
from repro.topology.elements import Network, SwitchId


@dataclass(frozen=True)
class Path:
    """A switch-level path (sequence of adjacent switches)."""

    nodes: Tuple[SwitchId, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 1:
            raise RoutingError("a path needs at least one node")
        if len(set(self.nodes)) != len(self.nodes):
            raise RoutingError(f"path revisits a switch: {self.nodes}")

    @property
    def src(self) -> SwitchId:
        return self.nodes[0]

    @property
    def dst(self) -> SwitchId:
        return self.nodes[-1]

    @property
    def hops(self) -> int:
        """Switch-to-switch hop count (0 for a single-switch path)."""
        return len(self.nodes) - 1

    def edges(self) -> List[Tuple[SwitchId, SwitchId]]:
        return list(zip(self.nodes, self.nodes[1:]))

    def validate_on(self, net: Network) -> None:
        """Raise unless every edge of the path exists in the fabric."""
        for u, v in self.edges():
            if not net.fabric.has_edge(u, v):
                raise RoutingError(
                    f"path uses non-existent link {u!r} - {v!r}"
                )


def select_path(paths: Sequence[Path], flow_key: object) -> Path:
    """Deterministic crc32 pick of a flow's path among one pair's paths."""
    src, dst = paths[0].src, paths[0].dst
    digest = zlib.crc32(repr((src, dst, flow_key)).encode())
    return paths[digest % len(paths)]


@dataclass
class RoutingTable:
    """Multipath routes per (source switch, destination switch) pair.

    Path selection hashes a flow key over the available paths, which
    models ECMP/KSP per-flow load balancing without per-packet state.
    """

    name: str = "routes"
    _paths: Dict[Tuple[SwitchId, SwitchId], List[Path]] = field(
        default_factory=dict
    )

    def add(self, paths: Iterable[Path]) -> None:
        for path in paths:
            if path.hops == 0:
                continue
            key = (path.src, path.dst)
            self._paths.setdefault(key, []).append(path)

    def paths(self, src: SwitchId, dst: SwitchId) -> List[Path]:
        if src == dst:
            return [Path((src,))]
        try:
            return self._paths[(src, dst)]
        except KeyError:
            raise RoutingError(
                f"no route from {src!r} to {dst!r} in table {self.name!r}"
            ) from None

    def has_route(self, src: SwitchId, dst: SwitchId) -> bool:
        return src == dst or (src, dst) in self._paths

    def select(self, src: SwitchId, dst: SwitchId, flow_key: object) -> Path:
        """Deterministic hash-based pick among the pair's paths."""
        return select_path(self.paths(src, dst), flow_key)

    def pairs(self) -> List[Tuple[SwitchId, SwitchId]]:
        return list(self._paths)

    def validate_on(self, net: Network) -> None:
        """Check every stored path against the fabric."""
        for paths in self._paths.values():
            for path in paths:
                path.validate_on(net)

    def __len__(self) -> int:
        return sum(len(v) for v in self._paths.values())
