"""Reference planner: the whole-fabric network diff the planner replaced.

``Controller._plan`` reads what a conversion changes from the circuit
table, one scheduling unit at a time.  It used to materialize the fabric
before and after the target and diff the two networks; ``plan`` keeps
that diff (``_link_diff`` and the moved-server loop) unchanged apart
from reading the plant and the failure set from arguments, so the
property tests in ``tests/core/test_plan_oracle.py`` compare the planner
against code that shares nothing with it but ``FlatTree.materialize``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.converter import ConverterConfig, ConverterId
from repro.core.failures import FailureSet
from repro.core.flattree import FlatTree
from repro.topology.elements import Network, SwitchId

Cable = Tuple[SwitchId, SwitchId]


def plan(
    ft: FlatTree,
    target: Mapping[ConverterId, ConverterConfig],
    failures: Optional[FailureSet] = None,
) -> Tuple[List[Cable], List[Cable], Dict[int, Tuple[SwitchId, SwitchId]]]:
    """``(links_removed, links_added, servers_moved)`` of reaching ``target``.

    Raises :class:`~repro.errors.TopologyError` when the target strands a
    server the current fabric attaches: the moved-server loop asks the
    target network for a switch it no longer has.
    """
    before = ft.materialize(failures=failures)
    after = ft.materialize(target, failures=failures)
    removed, added = _link_diff(before, after)
    moved = {
        server: (before.server_switch(server), after.server_switch(server))
        for server in before.servers()
        if before.server_switch(server) != after.server_switch(server)
    }
    return removed, added, moved


def cables_removed(before: Network, after: Network) -> List[Cable]:
    """The cables ``before`` has and ``after`` lacks, sorted and oriented."""
    return _link_diff(before, after)[0]


def _link_diff(
    before: Network, after: Network
) -> Tuple[List[Tuple[SwitchId, SwitchId]], List[Tuple[SwitchId, SwitchId]]]:
    """Cable-level differences between two materializations."""

    def multiset(net: Network) -> Dict[frozenset, int]:
        return {
            frozenset((u, v)): d["mult"]
            for u, v, d in net.fabric.edges(data=True)
        }

    b, a = multiset(before), multiset(after)
    deltas: Dict[frozenset, int] = {}
    for key in a.keys() | b.keys():
        delta = a.get(key, 0) - b.get(key, 0)
        if delta:
            deltas[key] = delta
    removed: List[Tuple[SwitchId, SwitchId]] = []
    added: List[Tuple[SwitchId, SwitchId]] = []
    for key in sorted(deltas, key=lambda pair: sorted(repr(s) for s in pair)):
        delta = deltas[key]
        pair = tuple(sorted(key, key=repr))
        if delta < 0:
            removed.extend([pair] * -delta)
        else:
            added.extend([pair] * delta)
    return removed, added
