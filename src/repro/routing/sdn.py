"""Pre-computed SDN path programs (paper §2.6).

"Because flat-tree maintains structures when approximating random
graphs, instead of learning routes, it is possible to have prior
knowledge of the shortest paths and program the routing decisions via
SDN."  This module compiles a :class:`~repro.routing.base.RoutingTable`
into per-switch flow rules — match on (destination switch, path id) and
forward to a next hop — and can walk the rules to prove the program is
blackhole- and loop-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import RoutingError
from repro.routing.base import Path, RoutingTable
from repro.topology.elements import Network, SwitchId

#: A rule key: (source switch, destination switch, path id).  Source
#: routing keeps the rules of different pairs from colliding at shared
#: switches (distinct sources may legitimately use different paths to the
#: same destination).
RuleKey = Tuple[SwitchId, SwitchId, int]


@dataclass
class SdnProgram:
    """Compiled flow rules, indexed by switch."""

    name: str = "sdn"
    rules: Dict[SwitchId, Dict[RuleKey, SwitchId]] = field(default_factory=dict)

    @classmethod
    def compile(cls, table: RoutingTable) -> "SdnProgram":
        """Compile every path of a routing table into hop-by-hop rules.

        Paths of the same (src, dst) pair get distinct path ids, so
        multipath sets survive compilation.  A conflicting rule (same
        switch, same key, different next hop) would mean one path id of
        one pair visits a switch twice — impossible for loop-free paths —
        so a conflict raises.
        """
        program = cls(name=f"sdn[{table.name}]")
        for src, dst in table.pairs():
            for path_id, path in enumerate(table.paths(src, dst)):
                program._install(path, path_id)
        return program

    def _install(self, path: Path, path_id: int) -> None:
        key = (path.src, path.dst, path_id)
        rules = self.rules
        for here, nxt in path.edges():
            switch_rules = rules.get(here)
            if switch_rules is None:
                switch_rules = rules[here] = {}
            existing = switch_rules.setdefault(key, nxt)
            if existing != nxt:
                raise RoutingError(
                    f"rule conflict at {here!r} for {key}: "
                    f"{existing!r} vs {nxt!r}"
                )

    def forward(
        self, src: SwitchId, dst: SwitchId, path_id: int = 0
    ) -> Path:
        """Walk the rules from ``src`` toward ``dst``; prove delivery.

        Raises on blackholes (no matching rule) and loops (a switch
        visited twice), which is how tests certify a compiled program.
        """
        nodes = [src]
        seen = {src}
        here = src
        while here != dst:
            try:
                here = self.rules[here][(src, dst, path_id)]
            except KeyError:
                raise RoutingError(
                    f"blackhole at {nodes[-1]!r} toward {dst!r} "
                    f"(path {path_id})"
                ) from None
            if here in seen:
                raise RoutingError(
                    f"forwarding loop at {here!r} toward {dst!r}"
                )
            seen.add(here)
            nodes.append(here)
        return Path(tuple(nodes))

    def rule_count(self) -> int:
        """Total flow rules installed (control-plane cost metric)."""
        return sum(len(r) for r in self.rules.values())

    def rules_at(self, switch: SwitchId) -> int:
        """Rules installed on one switch (table-size metric)."""
        return len(self.rules.get(switch, {}))

    def validate_on(self, net: Network) -> None:
        """Every rule's next hop must be a fabric neighbor."""
        for here, switch_rules in self.rules.items():
            for key, nxt in switch_rules.items():
                if not net.fabric.has_edge(here, nxt):
                    raise RoutingError(
                        f"rule at {here!r} -> {nxt!r} uses a missing link"
                    )
