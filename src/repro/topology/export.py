"""Topology export: DOT, JSON, and edge-list dumps.

Operators and papers want pictures and machine-readable dumps of the
materialized topologies.  The exporters here are dependency-free (plain
text formats):

* :func:`to_dot` — Graphviz DOT with per-layer styling (cores striped,
  aggs gridded, edges shaded, matching the paper's Figure 2 legend);
* :func:`to_json_dict` / :func:`from_json_dict` — a loss-free
  round-trip of any :class:`~repro.topology.elements.Network`;
* :func:`to_edge_list` — a flat text dump for external graph tools.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.errors import TopologyError
from repro.topology.elements import (
    AggSwitch,
    CoreSwitch,
    EdgeSwitch,
    Network,
    PlainSwitch,
    SwitchId,
)
from repro.topology.twostage import PodSwitch

_DOT_STYLE = {
    "core": 'shape=box style="striped" fillcolor="gray60:white"',
    "agg": 'shape=box style="filled" fillcolor=gray85',
    "edge": 'shape=box style="filled" fillcolor=gray95',
    "switch": "shape=box",
    "podsw": "shape=box",
}


def _node_id(switch: SwitchId) -> str:
    fields = [str(f) for f in switch[:-1]]  # drop the kind discriminant
    return f"{switch.kind}_" + "_".join(fields)


def to_dot(net: Network, include_servers: bool = False) -> str:
    """Render the fabric (optionally with servers) as Graphviz DOT."""
    lines = [f'graph "{net.name}" {{', "  node [fontsize=10];"]
    for switch in net.switches():
        style = _DOT_STYLE.get(switch.kind, "shape=box")
        lines.append(
            f'  {_node_id(switch)} [label="{_node_id(switch)}" {style}];'
        )
    for u, v, _capacity, mult in net.bundles():
        attr = f" [penwidth={mult}]" if mult > 1 else ""
        lines.append(f"  {_node_id(u)} -- {_node_id(v)}{attr};")
    if include_servers:
        for server in sorted(net.servers()):
            host = net.server_switch(server)
            lines.append(f"  srv_{server} [shape=circle label={server}];")
            lines.append(f"  srv_{server} -- {_node_id(host)} [style=dotted];")
    lines.append("}")
    return "\n".join(lines)


_KINDS = {
    "core": CoreSwitch,
    "agg": AggSwitch,
    "edge": EdgeSwitch,
    "switch": PlainSwitch,
    "podsw": PodSwitch,
}


def _switch_to_json(switch: SwitchId) -> List:
    return [switch.kind] + [int(f) for f in switch[:-1]]


def _switch_from_json(data: List) -> SwitchId:
    kind = data[0]
    try:
        cls = _KINDS[kind]
    except KeyError:
        raise TopologyError(f"unknown switch kind {kind!r}") from None
    return cls(*data[1:])


def to_json_dict(net: Network) -> Dict:
    """A loss-free JSON-safe representation of a network."""
    return {
        "name": net.name,
        "switches": [
            {"id": _switch_to_json(s), "ports": net.ports(s)}
            for s in net.switches()
        ],
        "cables": [
            {
                "u": _switch_to_json(u),
                "v": _switch_to_json(v),
                "mult": mult,
                "capacity": capacity,
            }
            for u, v, capacity, mult in net.bundles()
        ],
        "servers": {
            str(server): _switch_to_json(net.server_switch(server))
            for server in sorted(net.servers())
        },
    }


def from_json_dict(data: Dict) -> Network:
    """Inverse of :func:`to_json_dict` (port accounting re-validated)."""
    try:
        net = Network(data["name"])
        for entry in data["switches"]:
            net.add_switch(_switch_from_json(entry["id"]), entry["ports"])
        for cable in data["cables"]:
            u = _switch_from_json(cable["u"])
            v = _switch_from_json(cable["v"])
            per_cable = cable["capacity"] / cable["mult"]
            for _ in range(cable["mult"]):
                net.add_cable(u, v, capacity=per_cable)
        for server, host in data["servers"].items():
            net.add_server(int(server), _switch_from_json(host))
    except (KeyError, TypeError) as exc:
        raise TopologyError(f"malformed network dump: {exc}") from exc
    return net


def save_json(net: Network, path: str) -> None:
    """Write :func:`to_json_dict` to a file."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_json_dict(net), handle, indent=1, sort_keys=True)


def load_json(path: str) -> Network:
    """Read a network previously written by :func:`save_json`."""
    with open(path, encoding="utf-8") as handle:
        return from_json_dict(json.load(handle))


def to_edge_list(net: Network) -> str:
    """One ``u<TAB>v<TAB>capacity`` line per fabric edge."""
    lines = []
    for u, v, cap in net.edge_list():
        lines.append(f"{_node_id(u)}\t{_node_id(v)}\t{cap:g}")
    return "\n".join(lines)
