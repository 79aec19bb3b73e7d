"""The one network builder against the two it replaced.

``FlatTree.materialize`` must build, element for element and in the same
insertion order, the network the former healthy builder built (no
failure set) and the one the former degraded builder built (any failure
set, empty included).  Insertion order matters: dense switch indices
order the LP variables and adjacency order breaks KSP ties.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

import materialize_oracle as oracle
from repro.core.conversion import Mode, hybrid_configs, mode_configs
from repro.core.converter import Leg
from repro.core.design import FlatTreeDesign
from repro.core.failures import FailureSet, heal
from repro.core.flattree import FlatTree
from repro.core.zones import proportional_layout
from repro.topology.elements import Network

KS = (4, 6, 8)


@lru_cache(maxsize=None)
def every_cable(k: int) -> List[frozenset]:
    """Every cable some mode realizes: static, converter and side-bundle."""
    ft = FlatTree(FlatTreeDesign.for_fat_tree(k))
    cables = {frozenset((u, v))
              for mode in Mode
              for u, v in ft.materialize(mode_configs(ft, mode)).fabric.edges()}
    return sorted(cables, key=lambda cable: sorted(map(repr, cable)))


def signature(net: Network):
    """Everything a builder decides, in insertion order."""
    return (
        net.name,
        [(s, net.ports(s), net.ports_used(s), net.servers_on(s))
         for s in net.switches()],
        [(u, v, d["capacity"], d["mult"])
         for u, v, d in net.fabric.edges(data=True)],
        [(u, list(net.fabric[u])) for u in net.fabric],
        [(server, net.server_switch(server)) for server in net.servers()],
    )


@st.composite
def failure_sets(draw, ft: FlatTree, k: int):
    if draw(st.booleans()):
        return None
    cids = sorted(ft.converters)
    legs = draw(st.lists(st.tuples(st.sampled_from(cids),
                                   st.sampled_from(list(Leg))),
                         max_size=6))
    switches = draw(st.lists(st.sampled_from(list(ft.switches)),
                             max_size=2))
    cables = draw(st.lists(st.sampled_from(every_cable(k)),
                           max_size=6))
    return FailureSet(
        converter_legs=FailureSet.of_legs(*legs).converter_legs,
        cables=frozenset(cables),
        switches=frozenset(switches),
    )


@st.composite
def scenarios(draw):
    k = draw(st.sampled_from(KS))
    design = FlatTreeDesign.for_fat_tree(k)
    ft = FlatTree(design)
    failures = draw(failure_sets(ft, k))
    kind = draw(st.sampled_from(["mode", "hybrid", "heal"]))
    if kind == "hybrid":
        fraction = draw(st.sampled_from(
            [count / ft.params.pods for count in range(1, ft.params.pods)]))
        layout = proportional_layout(ft.params, fraction)
        assignment = hybrid_configs(ft, layout.pod_modes())
    else:
        assignment = mode_configs(ft, draw(st.sampled_from(list(Mode))))
    if kind == "heal":
        ft.set_configs(assignment)
        assignment = heal(ft, failures or FailureSet())
    return design, ft, assignment, failures


@settings(max_examples=60)
@given(scenarios())
def test_builder_matches_the_oracle(scenario):
    design, ft, assignment, failures = scenario
    ft.set_configs(assignment)
    if failures is None:
        expected = oracle.materialize(ft)
    else:
        expected = oracle.materialize_with_failures(ft, failures)
    assert signature(ft.materialize(failures=failures)) == \
        signature(expected)
    # The same network from a fresh plant, realizing the assignment
    # without committing it.
    fresh = FlatTree(design)
    assert signature(fresh.materialize(assignment, failures)) == \
        signature(expected)
    assert fresh.configs() == FlatTree(design).configs()
