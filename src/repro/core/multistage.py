"""Two-stage (multi-Pod-layer) flat-tree: the paper's §2.1 sketch, realized.

"Flat-tree can be extended to multi-stages of Pods: the lower-layer
Pods consider the edge switches in the upper-layer Pods as core
switches; intermediate switch-only Pods take relocated servers from
lower-layer Pods as their own servers.  We leave the details to future
work."

This module supplies the details as a *composition* of the
single-layer machinery (our design decisions, not the paper's — each is
noted):

* the lower layer is an ordinary :class:`~repro.core.flattree.FlatTree`
  whose core switches are **identified** with the upper layer's edge
  switches: lower core ``c`` is upper edge switch
  ``(c // d_u, c mod d_u)``, which requires
  ``lower.num_cores == upper.pods * upper.d``;
* the upper layer is an ordinary FlatTree whose "servers" are *slots*
  — attachment points for the lower layer's Pod-core connectors.  Upper
  edge switch slots number ``lower.pods`` (one per lower Pod, exactly
  the per-core down-link count of the plain Clos), so
  ``upper.servers_per_edge == lower.pods``;
* slot ``(c, p)`` (lower core c, lower Pod p) carries whatever the
  lower layer routes up from Pod p toward core c — an aggregation
  uplink, a 4-port core-edge circuit, or a relocated server.  The upper
  layer's converters relocate the slot itself: in upper ``default`` the
  slot lands on the upper edge switch (the classic 3-tier Clos); in
  ``local`` on the upper aggregation switch; in ``side``/``cross`` on
  an upper core switch;
* both layers' converters are physical-layer, so the composed hop count
  still charges nothing for conversion hardware.

Conversion is therefore a pair of configuration assignments, one per
layer, each validated by its own FlatTree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple, Union

from repro.errors import ConfigurationError, TopologyError
from repro.core.conversion import Mode, mode_configs
from repro.core.design import FlatTreeDesign
from repro.core.flattree import FlatTree
from repro.topology.elements import (
    AggSwitch,
    EdgeSwitch,
    Network,
    SwitchId,
)


class UpperEdge(NamedTuple):
    """An upper-layer edge switch (plays lower-layer core)."""

    pod: int
    index: int
    kind: str = "u-edge"


class UpperAgg(NamedTuple):
    """An upper-layer aggregation switch."""

    pod: int
    index: int
    kind: str = "u-agg"


class UpperCore(NamedTuple):
    """A top-layer core switch."""

    index: int
    kind: str = "u-core"


UpperSwitch = Union[UpperEdge, UpperAgg, UpperCore]


def _lift(switch: SwitchId) -> UpperSwitch:
    """Map an upper FlatTree's node into the upper namespace."""
    if switch.kind == "edge":
        return UpperEdge(switch.pod, switch.index)
    if switch.kind == "agg":
        return UpperAgg(switch.pod, switch.index)
    if switch.kind == "core":
        return UpperCore(switch.index)
    raise TopologyError(f"unexpected upper switch {switch!r}")


@dataclass(frozen=True)
class TwoStageDesign:
    """A validated pair of layer designs."""

    lower: FlatTreeDesign
    upper: FlatTreeDesign

    def __post_init__(self) -> None:
        lo, up = self.lower.params, self.upper.params
        if lo.num_cores != up.pods * up.d:
            raise ConfigurationError(
                f"lower layer has {lo.num_cores} cores but the upper "
                f"layer offers {up.pods * up.d} edge switches"
            )
        if up.servers_per_edge != lo.pods:
            raise ConfigurationError(
                f"upper edge switches need {lo.pods} slots (one per "
                f"lower Pod), got {up.servers_per_edge}"
            )

    @classmethod
    def symmetric(cls, k_lower: int, k_upper_pods: int = 2) -> "TwoStageDesign":
        """A convenient small instance: fat-tree(k) below, sized above.

        The upper layer gets ``k_upper_pods`` Pods covering the lower
        layer's ``(k/2)^2`` cores, one upper aggregation per upper edge,
        and upper uplink counts mirroring the upper Pod width.
        """
        lower = FlatTreeDesign.for_fat_tree(k_lower)
        cores = lower.params.num_cores
        if cores % k_upper_pods != 0:
            raise ConfigurationError(
                f"{cores} lower cores do not split into "
                f"{k_upper_pods} upper Pods"
            )
        d_u = cores // k_upper_pods
        from repro.topology.clos import ClosParams
        from repro.core.wiring import profiled_pattern

        upper_params = ClosParams(
            pods=k_upper_pods,
            d=d_u,
            r=1,
            h=d_u,
            servers_per_edge=lower.params.pods,
        )
        m = max(1, lower.params.pods // 8)
        n = max(1, lower.params.pods // 4)
        # The upper layer relocates at most one slot per lower Pod pair;
        # keep m + n within both the slot count and the group size.
        budget = min(upper_params.servers_per_edge, upper_params.group_size)
        while m + n > budget:
            if n > 1:
                n -= 1
            elif m > 1:
                m -= 1
            else:
                raise ConfigurationError(
                    "upper layer too small for any converters"
                )
        upper = FlatTreeDesign(
            params=upper_params,
            m=m,
            n=n,
            pattern=profiled_pattern(upper_params, m),
            ring=k_upper_pods >= 2,
        )
        return cls(lower=lower, upper=upper)


class TwoStageFlatTree:
    """A convertible two-Pod-layer flat-tree."""

    def __init__(self, design: TwoStageDesign) -> None:
        self.design = design
        self.lower = FlatTree(design.lower)
        self.upper = FlatTree(design.upper)

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def set_modes(self, lower: Mode, upper: Mode) -> None:
        """Put each layer into a homogeneous operating mode."""
        self.lower.set_configs(mode_configs(self.lower, lower))
        self.upper.set_configs(mode_configs(self.upper, upper))

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------
    def slot_id(self, core: int, pod: int) -> int:
        """Upper slot fed by lower Pod ``pod``'s connector toward ``core``."""
        return core * self.design.lower.params.pods + pod

    def materialize(self, name: Optional[str] = None) -> Network:
        """Compose both layers into one logical network."""
        lower_net = self.lower.materialize()
        upper_net = self.upper.materialize()
        attach = self._slot_attachments(upper_net)

        net = Network(name or "two-stage flat-tree")
        lo = self.design.lower.params
        # Lower switches (cores excluded: they *are* upper edges).
        for switch in lower_net.switches():
            if switch.kind != "core":
                net.add_switch(switch, lower_net.ports(switch))
        for switch in upper_net.switches():
            net.add_switch(_lift(switch), upper_net.ports(switch))

        for u, v, _capacity, mult in lower_net.bundles():
            for _ in range(mult):
                net.add_cable(*self._resolve_pair(u, v, attach))
        for u, v, _capacity, mult in upper_net.bundles():
            for _ in range(mult):
                net.add_cable(_lift(u), _lift(v))

        for server in lower_net.servers():
            host = lower_net.server_switch(server)
            if host.kind == "core":
                pod = lo.server_pod(server)
                host = attach[self.slot_id(host.index, pod)]
            net.add_server(server, host)
        return net

    def _slot_attachments(self, upper_net: Network) -> Dict[int, UpperSwitch]:
        """Where each slot lands under the upper layer's configuration."""
        return {
            slot: _lift(upper_net.server_switch(slot))
            for slot in upper_net.servers()
        }

    def _resolve_pair(
        self,
        u: SwitchId,
        v: SwitchId,
        attach: Dict[int, UpperSwitch],
    ) -> Tuple[SwitchId, SwitchId]:
        """Replace lower-core endpoints with their upper attachments."""
        if u.kind == "core" and v.kind == "core":
            raise TopologyError("lower layer produced a core-core cable")
        if u.kind == "core":
            u, v = v, u
        if v.kind != "core":
            return u, v
        pod = _pod_of_lower(u)
        return u, attach[self.slot_id(v.index, pod)]

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    def pod_server_groups(self):
        """Lower-layer Pod groupings (for in-Pod metrics)."""
        return self.lower.pod_server_groups()

    @property
    def num_servers(self) -> int:
        return self.design.lower.params.num_servers


def _pod_of_lower(switch: SwitchId) -> int:
    if isinstance(switch, (EdgeSwitch, AggSwitch)):
        return switch.pod
    raise TopologyError(
        f"cannot infer the lower Pod of {switch!r}"
    )


def build_two_stage_flat_tree(
    k_lower: int,
    k_upper_pods: int = 2,
    lower_mode: Mode = Mode.CLOS,
    upper_mode: Mode = Mode.CLOS,
) -> Network:
    """One-call builder: design, configure both layers, materialize."""
    plant = TwoStageFlatTree(TwoStageDesign.symmetric(k_lower, k_upper_pods))
    plant.set_modes(lower_mode, upper_mode)
    return plant.materialize(
        f"two-stage flat-tree[{lower_mode.value}/{upper_mode.value}]"
    )
