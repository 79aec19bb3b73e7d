"""Topology audits: port budgets, equipment equality, connectivity.

The paper's comparisons only make sense when every topology is built
"using the same switches and servers" (§1).  These helpers let tests and
experiment drivers assert that invariant, plus basic well-formedness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import TopologyError
from repro.topology.elements import Network, equipment_signature
from repro.topology.stats import is_connected


@dataclass
class AuditReport:
    """Outcome of :func:`audit`; ``ok`` is True when no problems remain."""

    problems: List[str] = field(default_factory=list)
    free_ports: int = 0
    num_switches: int = 0
    num_servers: int = 0
    num_cables: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def audit(net: Network, require_connected: bool = True) -> AuditReport:
    """Run all structural checks on a network and collect problems."""
    report = AuditReport(
        num_switches=net.num_switches,
        num_servers=net.num_servers,
        num_cables=net.num_cables,
    )
    for s in net.switches():
        used = net.ports_used(s)
        budget = net.ports(s)
        if used > budget:
            report.problems.append(
                f"switch {s!r} uses {used} ports but has only {budget}"
            )
        report.free_ports += budget - used
    recount = _recount_ports(net)
    for s in net.switches():
        if recount.get(s, 0) != net.ports_used(s):
            report.problems.append(
                f"switch {s!r} port ledger out of sync: "
                f"ledger={net.ports_used(s)} actual={recount.get(s, 0)}"
            )
    if require_connected and net.num_switches > 0 and not is_connected(net):
        report.problems.append("switch fabric is not connected")
    return report


def _recount_ports(net: Network) -> Dict:
    """Recompute port usage from cables + servers, ignoring the ledger."""
    counts: Dict = {s: 0 for s in net.switches()}
    for u, v, _capacity, mult in net.bundles():
        counts[u] += mult
        counts[v] += mult
    for server in net.servers():
        counts[net.server_switch(server)] += 1
    return counts


def assert_valid(net: Network, require_connected: bool = True) -> None:
    """Raise :class:`TopologyError` if :func:`audit` finds any problem."""
    report = audit(net, require_connected=require_connected)
    if not report.ok:
        raise TopologyError(
            f"{net.name}: " + "; ".join(report.problems)
        )


def assert_same_equipment(a: Network, b: Network) -> None:
    """Raise unless both networks use identical equipment.

    Identical equipment means: same server count, same switch count, and
    the same multiset of per-switch port budgets.
    """
    sig_a = equipment_signature(a)
    sig_b = equipment_signature(b)
    if sig_a != sig_b:
        raise TopologyError(
            f"equipment mismatch: {a.name} has (servers, switches)="
            f"{sig_a[:2]}, {b.name} has {sig_b[:2]}"
        )
