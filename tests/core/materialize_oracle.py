"""Reference network builders: those that ``FlatTree.materialize`` replaced.

``materialize`` is the former healthy builder (``FlatTree.materialize``)
and ``materialize_with_failures`` the former degraded one, kept
unchanged apart from reading the plant from an argument.  Each carries
its own circuit tables, so the property test in
``tests/core/test_materialize_oracle.py`` compares the one builder
against code that shares nothing with it but the plant.
Both realize the plant's *current* converter configurations.

``materialize_fresh`` is the one builder as it was before the plant
kept its circuits: it builds them anew on every call
(``fresh_circuits``).  ``tests/core/test_circuit_memo.py`` holds the
builder over kept circuits to it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.converter import (
    PAIRED_CONFIGS,
    ConverterConfig,
    Leg,
    pair_links,
)
from repro.core.failures import FailureSet
from repro.errors import ConfigurationError
from repro.topology.clos import add_clos_switches, add_intra_pod_bipartite
from repro.topology.elements import (
    AggSwitch,
    CoreSwitch,
    EdgeSwitch,
    Network,
    SwitchId,
)


def _own_links(conv):
    config = conv.config
    conv.check_config(config)
    if config is ConverterConfig.DEFAULT:
        return [("cable", conv.agg, conv.core),
                ("attach", conv.server, conv.edge)]
    if config is ConverterConfig.LOCAL:
        return [("cable", conv.core, conv.edge),
                ("attach", conv.server, conv.agg)]
    return [("attach", conv.server, conv.core)]


def _pair_links(left, right):
    lc, rc = left.config, right.config
    in_pair = (lc in PAIRED_CONFIGS, rc in PAIRED_CONFIGS)
    if in_pair == (False, False):
        return []
    if in_pair != (True, True) or lc is not rc:
        raise ConfigurationError("inconsistent side bundle")
    if lc is ConverterConfig.SIDE:
        return [("cable", left.edge, right.edge),
                ("cable", left.agg, right.agg)]
    return [("cable", left.edge, right.agg),
            ("cable", left.agg, right.edge)]


def materialize(ft, name: Optional[str] = None) -> Network:
    """Build the logical network realized by the current configs."""
    params = ft.design.params
    net = Network(name or f"flat-tree({params.pods} pods)")
    add_clos_switches(net, params)
    add_intra_pod_bipartite(net, params)
    for u, v in ft._direct_cables:
        net.add_cable(u, v)
    for server, switch in ft._direct_attaches:
        net.add_server(server, switch)
    for conv in ft.converters.values():
        for link in _own_links(conv):
            _apply_link(net, link)
    for left, right in ft.pairs:
        for link in _pair_links(ft.converters[left], ft.converters[right]):
            _apply_link(net, link)
    return net


def _apply_link(net: Network, link) -> None:
    tag, a, b = link
    if tag == "cable":
        net.add_cable(a, b)
    else:
        net.add_server(a, b)


def _plant_switches(ft) -> Set[SwitchId]:
    params = ft.design.params
    known: Set[SwitchId] = {
        CoreSwitch(c) for c in range(params.num_cores)
    }
    for pod in range(params.pods):
        for j in range(params.d):
            known.add(EdgeSwitch(pod, j))
        for a in range(params.aggs_per_pod):
            known.add(AggSwitch(pod, a))
    return known


def _validate(failures: FailureSet, ft) -> None:
    known = _plant_switches(ft)
    for cid in failures.converter_legs:
        if cid not in ft.converters:
            raise ConfigurationError(f"unknown converter {cid}")
    for switch in failures.switches:
        if switch not in known:
            raise ConfigurationError(f"unknown switch {switch!r}")
    for cable in failures.cables:
        for switch in cable:
            if switch not in known:
                raise ConfigurationError(f"unknown switch {switch!r}")


_CIRCUITS: Dict[ConverterConfig, List[Tuple[Leg, Leg]]] = {
    ConverterConfig.DEFAULT: [(Leg.AGG, Leg.CORE), (Leg.EDGE, Leg.SERVER)],
    ConverterConfig.LOCAL: [(Leg.AGG, Leg.SERVER), (Leg.CORE, Leg.EDGE)],
    ConverterConfig.SIDE: [(Leg.SERVER, Leg.CORE)],
    ConverterConfig.CROSS: [(Leg.SERVER, Leg.CORE)],
}


def _leg_switch(conv, leg: Leg) -> SwitchId:
    if leg is Leg.CORE:
        return conv.core
    if leg is Leg.AGG:
        return conv.agg
    if leg is Leg.EDGE:
        return conv.edge
    raise ConfigurationError(f"leg {leg} has no switch endpoint")


def surviving_own_links(conv, config, failures: FailureSet) -> List:
    """The converter's own circuits that survive the failure set."""
    dead = failures.dead_legs(conv.cid)
    out = []
    for leg_a, leg_b in _CIRCUITS[config]:
        if leg_a in dead or leg_b in dead:
            continue
        endpoints = []
        alive = True
        for leg in (leg_a, leg_b):
            if leg is Leg.SERVER:
                endpoints.append(("server", conv.server))
            else:
                switch = _leg_switch(conv, leg)
                if switch in failures.switches:
                    alive = False
                endpoints.append(("switch", switch))
        if not alive:
            continue
        (kind_a, a), (kind_b, b) = endpoints
        if kind_a == "server":
            out.append(("attach", a, b))
        elif kind_b == "server":
            out.append(("attach", b, a))
        else:
            out.append(("cable", a, b))
    return out


def surviving_pair_links(left, right, failures: FailureSet) -> List:
    """Side-bundle circuits that survive (both SIDE legs must live)."""
    if left.config not in PAIRED_CONFIGS:
        return []
    if Leg.SIDE in failures.dead_legs(left.cid):
        return []
    if Leg.SIDE in failures.dead_legs(right.cid):
        return []
    links = _pair_links(left, right)
    return [
        link
        for link in links
        if not (link[1] in failures.switches or link[2] in failures.switches)
    ]


def materialize_with_failures(
    ft, failures: FailureSet, name: Optional[str] = None
) -> Network:
    """The degraded logical network under the current configuration."""
    _validate(failures, ft)
    params = ft.design.params
    net = Network(name or "flat-tree[degraded]")
    for c in range(params.num_cores):
        switch = CoreSwitch(c)
        if switch not in failures.switches:
            net.add_switch(switch, params.core_ports)
    for pod in range(params.pods):
        for j in range(params.d):
            switch = EdgeSwitch(pod, j)
            if switch not in failures.switches:
                net.add_switch(switch, params.edge_ports)
        for a in range(params.aggs_per_pod):
            switch = AggSwitch(pod, a)
            if switch not in failures.switches:
                net.add_switch(switch, params.agg_ports)

    def alive(u: SwitchId, v: SwitchId) -> bool:
        return (
            u not in failures.switches
            and v not in failures.switches
            and not failures.cable_dead(u, v)
        )

    for pod in range(params.pods):
        for j in range(params.d):
            for a in range(params.aggs_per_pod):
                edge, agg = EdgeSwitch(pod, j), AggSwitch(pod, a)
                if alive(edge, agg):
                    net.add_cable(edge, agg)
    for u, v in ft._direct_cables:
        if alive(u, v):
            net.add_cable(u, v)
    for server, switch in ft._direct_attaches:
        if switch not in failures.switches:
            net.add_server(server, switch)

    for conv in ft.converters.values():
        for link in surviving_own_links(conv, conv.config, failures):
            _apply(net, link, failures)
    for left_id, right_id in ft.pairs:
        links = surviving_pair_links(
            ft.converters[left_id], ft.converters[right_id], failures
        )
        for link in links:
            _apply(net, link, failures)
    return net


def _apply(net: Network, link, failures: FailureSet) -> None:
    tag, a, b = link
    if tag == "cable":
        if not failures.cable_dead(a, b):
            net.add_cable(a, b)
    else:
        net.add_server(a, b)


def fresh_circuits(ft, configs, converters, pairs=(),
                   failures: Optional[FailureSet] = None) -> List:
    """``FlatTree.circuits`` as it was before it kept its circuits."""
    links = [link for cid in converters
             for link in ft.converters[cid].own_links(configs[cid], failures)]
    for left, right in pairs:
        links += pair_links(ft.converters[left], ft.converters[right],
                            configs, failures)
    if failures is None:
        return links
    return [link for link in links if isinstance(link[1], int)
            or not failures.cable_dead(link[1], link[2])]


def materialize_fresh(ft, assignment=None,
                      failures: Optional[FailureSet] = None,
                      name: Optional[str] = None) -> Network:
    """``FlatTree.materialize`` over circuits built anew."""
    configs = ft.configs() if assignment is None else ft._staged(assignment)
    dead: frozenset = frozenset()
    if failures is not None:
        failures.validate(ft)
        dead = failures.switches
    cables = list(ft._static_cables)
    servers = list(ft._direct_attaches)
    for tag, a, b in fresh_circuits(ft, configs, ft.converters, ft.pairs,
                                    failures):
        (cables if tag == "cable" else servers).append((a, b))
    net = Network(name or (f"flat-tree({ft.params.pods} pods)"
                           if failures is None else "flat-tree[degraded]"))
    for switch, ports in ft.switches.items():
        if switch not in dead:
            net.add_switch(switch, ports)
    for u, v in cables:
        if failures is None or not failures.cable_dead(u, v):
            net.add_cable(u, v)
    for server, switch in servers:
        if switch not in dead:
            net.add_server(server, switch)
    return net
