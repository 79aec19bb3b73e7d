"""The convertible flat-tree network (paper §2).

:class:`FlatTree` models the *physical plant*: switches, servers, the
static cables converters never touch, and every converter switch with its
wired endpoints and peer.  The plant is built once; operating modes are
then realized by assigning converter configurations and asking
:meth:`FlatTree.materialize` for the resulting logical
:class:`~repro.topology.elements.Network` — of the current or any other
assignment, healthy or under a
:class:`~repro.core.failures.FailureSet`.

Materialized networks carry the exact port-accounting of the plant: a
circuit realized through a converter consumes the same physical ports the
underlying cables do, so every mode of a flat-tree built from fat-tree(k)
uses precisely the fat-tree's equipment.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.core.converter import (
    BLADE_A,
    BLADE_B,
    PAIRED_CONFIGS,
    Converter,
    ConverterConfig,
    ConverterId,
    RealizedLink,
    pair_links,
)
from repro.core.design import FlatTreeDesign
from repro.core.failures import FailureSet
from repro.core.interpod import iter_pairs
from repro.core.pod import blade_a_server_slot, blade_b_server_slot, direct_server_slots
from repro.core.wiring import Slot
from repro.topology.elements import (
    AggSwitch,
    CoreSwitch,
    EdgeSwitch,
    Network,
    SwitchId,
)


class FlatTree:
    """A flat-tree physical plant with runtime-configurable converters."""

    def __init__(self, design: FlatTreeDesign) -> None:
        self.design = design
        self.converters: Dict[ConverterId, Converter] = {}
        self.pairs: List[Tuple[ConverterId, ConverterId]] = []
        #: Every switch with its port budget, in the insertion order of
        #: materialized networks (cores, then each Pod's edges and aggs).
        self.switches: Dict[SwitchId, int] = {}
        self._direct_cables: List[Tuple[SwitchId, SwitchId]] = []
        #: Cables no converter touches: each Pod's edge-aggregation
        #: bipartite, then the direct aggregation-core cables.
        self._static_cables: List[Tuple[SwitchId, SwitchId]] = []
        self._direct_attaches: List[Tuple[int, SwitchId]] = []
        self._build_plant()

    # ------------------------------------------------------------------
    # plant construction
    # ------------------------------------------------------------------
    def _build_plant(self) -> None:
        design = self.design
        params = design.params
        wiring = design.wiring
        for c in range(params.num_cores):
            self.switches[CoreSwitch(c)] = params.core_ports
        for pod in range(params.pods):
            edges = [EdgeSwitch(pod, j) for j in range(params.d)]
            aggs = [AggSwitch(pod, a) for a in range(params.aggs_per_pod)]
            self.switches.update((edge, params.edge_ports) for edge in edges)
            self.switches.update((agg, params.agg_ports) for agg in aggs)
            self._static_cables += [(e, a) for e in edges for a in aggs]
        for pod in range(params.pods):
            for edge in range(params.d):
                edge_sw = EdgeSwitch(pod, edge)
                agg_sw = AggSwitch(pod, params.agg_of_edge(edge))
                for kind, row, core in wiring.slots(pod, edge):
                    if kind is Slot.AGG:
                        self._direct_cables.append((agg_sw, core))
                        continue
                    self._add_converter(
                        pod, edge, edge_sw, agg_sw, core, kind, row
                    )
                for slot in direct_server_slots(design):
                    server = params.server_id(pod, edge, slot)
                    self._direct_attaches.append((server, edge_sw))
        self._static_cables += self._direct_cables
        self._wire_pairs()

    def _add_converter(
        self,
        pod: int,
        edge: int,
        edge_sw: EdgeSwitch,
        agg_sw: AggSwitch,
        core: CoreSwitch,
        kind: Slot,
        row: int,
    ) -> None:
        if kind is Slot.BLADE_B:
            cid = ConverterId(pod, BLADE_B, row, edge)
            slot = blade_b_server_slot(row)
        else:
            cid = ConverterId(pod, BLADE_A, row, edge)
            slot = blade_a_server_slot(self.design, row)
        server = self.design.params.server_id(pod, edge, slot)
        self.converters[cid] = Converter(
            cid=cid, core=core, agg=agg_sw, edge=edge_sw, server=server
        )

    def _wire_pairs(self) -> None:
        for left, right in iter_pairs(self.design):
            self.converters[left].peer = right
            self.converters[right].peer = left
            self.pairs.append((left, right))

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def configs(self) -> Dict[ConverterId, ConverterConfig]:
        """Snapshot of every converter's current configuration."""
        return {cid: conv.config for cid, conv in self.converters.items()}

    def set_configs(
        self, assignment: Mapping[ConverterId, ConverterConfig]
    ) -> None:
        """Apply a (partial) configuration assignment.

        Every referenced converter must accept its new configuration and
        — after the whole assignment is applied — every side bundle must
        be consistent (both ends side, both ends cross, or both dark).
        The assignment is validated before any state changes.
        """
        self._staged(assignment)
        for cid, config in assignment.items():
            self.converters[cid].config = config

    def _staged(
        self, assignment: Mapping[ConverterId, ConverterConfig]
    ) -> Dict[ConverterId, ConverterConfig]:
        """The full configuration ``assignment`` leads to, validated."""
        staged = self.configs()
        for cid, config in assignment.items():
            if cid not in self.converters:
                raise ConfigurationError(f"unknown converter {cid}")
            self.converters[cid].check_config(config)
            staged[cid] = config
        for left, right in self.pairs:
            lc, rc = staged[left], staged[right]
            lp, rp = lc in PAIRED_CONFIGS, rc in PAIRED_CONFIGS
            if lp != rp or (lp and lc is not rc):
                raise ConfigurationError(
                    f"side bundle {left} <-> {right} inconsistent: "
                    f"{lc.value} vs {rc.value}"
                )
        return staged

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------
    def materialize(
        self,
        assignment: Optional[Mapping[ConverterId, ConverterConfig]] = None,
        failures: Optional[FailureSet] = None,
        name: Optional[str] = None,
    ) -> Network:
        """Build the logical network a configuration realizes.

        ``assignment`` is the (partial) configuration to realize, default
        the plant's current one; the plant itself is left unchanged.
        Under ``failures`` dead switches are absent from the fabric, dead
        cables and circuits over dead legs are not realized, and servers
        whose attachment circuit died are left detached — they do not
        appear in the result's server set, which is how callers count
        stranded servers.
        """
        configs = (self.configs() if assignment is None
                   else self._staged(assignment))
        dead: FrozenSet[SwitchId] = frozenset()
        if failures is not None:
            failures.validate(self)
            dead = failures.switches
        cables = list(self._static_cables)
        servers = list(self._direct_attaches)
        for tag, a, b in self.circuits(configs, self.converters, self.pairs,
                                       failures):
            (cables if tag == "cable" else servers).append((a, b))

        net = Network(name or (f"flat-tree({self.params.pods} pods)"
                               if failures is None else "flat-tree[degraded]"))
        for switch, ports in self.switches.items():
            if switch not in dead:
                net.add_switch(switch, ports)
        for u, v in cables:
            if failures is None or not failures.cable_dead(u, v):
                net.add_cable(u, v)
        for server, switch in servers:
            if switch not in dead:
                net.add_server(server, switch)
        return net

    def circuits(
        self,
        configs: Mapping[ConverterId, ConverterConfig],
        converters: Iterable[ConverterId],
        pairs: Iterable[Tuple[ConverterId, ConverterId]] = (),
        failures: Optional[FailureSet] = None,
    ) -> List[RealizedLink]:
        """The circuits ``converters`` and the side bundles ``pairs`` realize.

        Own circuits first, then side-bundle ones, each in
        :data:`~repro.core.converter.CIRCUITS` order, under ``configs``
        (a map naming every converter involved).  Under ``failures``
        circuits over dead legs or switches and dead cables are dropped.
        """
        links = [link for cid in converters
                 for link in self.converters[cid].own_links(configs[cid],
                                                            failures)]
        for left, right in pairs:
            links += pair_links(self.converters[left],
                                self.converters[right], configs, failures)
        if failures is None:
            return links
        # An attachment names its server by int id; every other link is
        # a cable between two switches.
        return [link for link in links if isinstance(link[1], int)
                or not failures.cable_dead(link[1], link[2])]

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    @property
    def params(self):
        return self.design.params

    def six_port_ids(self) -> List[ConverterId]:
        """All blade B (6-port) converter ids."""
        return [cid for cid in self.converters if cid.blade == BLADE_B]

    def four_port_ids(self) -> List[ConverterId]:
        """All blade A (4-port) converter ids."""
        return [cid for cid in self.converters if cid.blade == BLADE_A]

    def pod_converters(self, pod: int) -> List[ConverterId]:
        """Converter ids belonging to ``pod``."""
        return [cid for cid in self.converters if cid.pod == pod]

    def pod_server_groups(self) -> List[List[int]]:
        """Server ids grouped by Pod (dense id scheme)."""
        return [
            list(self.params.pod_servers(p)) for p in range(self.params.pods)
        ]

    def diff_configs(
        self, target: Mapping[ConverterId, ConverterConfig]
    ) -> Dict[ConverterId, Tuple[ConverterConfig, ConverterConfig]]:
        """Per-converter (current, target) for entries that change.

        ``target`` is validated as :meth:`set_configs` would validate it.
        """
        self._staged(target)
        out: Dict[ConverterId, Tuple[ConverterConfig, ConverterConfig]] = {}
        for cid, new in target.items():
            cur = self.converters[cid].config
            if cur is not new:
                out[cid] = (cur, new)
        return out
