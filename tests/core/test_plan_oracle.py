"""The circuit-table planner against the network diff it replaced.

``Controller._plan`` must list the cables and servers a conversion
changes exactly as diffing the fabrics before and after it does, in the
same order, on healthy and degraded controllers alike.  Every batch of a
schedule must darken exactly the cables that change between the fabrics
before and after it, and leave the fabric it runs on connected.
"""

from __future__ import annotations

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import plan_oracle as oracle
from repro.chaos import ChaosEvent, ChaosSchedule
from repro.core.controller import Controller
from repro.core.conversion import Mode, hybrid_configs
from repro.core.converter import Leg
from repro.core.design import FlatTreeDesign
from repro.core.failures import FailureSet, heal
from repro.core.flattree import FlatTree
from repro.core.reconfigure import schedule
from repro.core.zones import (
    Zone,
    ZoneLayout,
    proportional_layout,
    uniform_layout,
)
from repro.errors import TopologyError
from repro.topology.stats import is_connected
from test_materialize_oracle import KS, every_cable


@st.composite
def layouts(draw, params):
    """A uniform, proportional or random per-Pod zone layout."""
    kind = draw(st.sampled_from(["uniform", "proportional", "random"]))
    if kind == "uniform":
        return uniform_layout(params, draw(st.sampled_from(list(Mode))))
    if kind == "proportional":
        count = draw(st.integers(1, params.pods - 1))
        return proportional_layout(params, count / params.pods)
    modes = draw(st.lists(st.sampled_from(list(Mode)),
                          min_size=params.pods, max_size=params.pods))
    return ZoneLayout(params, tuple(
        Zone(f"pod{pod}", mode, (pod,)) for pod, mode in enumerate(modes)))


@st.composite
def plant_faults(draw, ft: FlatTree, k: int):
    """Dead legs, cables and switches, as chaos events at t=0."""
    legs = draw(st.lists(st.tuples(st.sampled_from(sorted(ft.converters)),
                                   st.sampled_from(list(Leg))),
                         min_size=1, max_size=4))
    cables = draw(st.lists(st.sampled_from(every_cable(k)), max_size=3))
    switches = draw(st.lists(st.sampled_from(list(ft.switches)),
                             max_size=1))
    return ([ChaosEvent.leg_fail(0.0, cid, leg) for cid, leg in legs]
            + [ChaosEvent.cable_fail(0.0, *sorted(cable, key=repr))
               for cable in cables]
            + [ChaosEvent.switch_fail(0.0, s) for s in switches])


@st.composite
def conversions(draw):
    """A controller, its active failures, and a conversion to plan.

    The controller starts from a random layout and is optionally
    degraded by executing a second one under plant faults.  The
    conversion is to a third layout or to the heal target of a failure
    set.
    """
    k = draw(st.sampled_from(KS))
    ft = FlatTree(FlatTreeDesign.for_fat_tree(k))
    controller = Controller(ft)
    controller.apply_layout(draw(layouts(ft.params)))
    failures = None
    if draw(st.booleans()):
        chaos = ChaosSchedule(events=tuple(draw(plant_faults(ft, k))))
        report = controller.execute_layout(draw(layouts(ft.params)),
                                           chaos=chaos)
        failures = None if report.failures.is_empty() else report.failures
    if draw(st.booleans()):
        faults = ChaosSchedule(events=tuple(draw(plant_faults(ft, k))))
        return controller, failures, faults.failures_at(0.0)
    return controller, failures, draw(layouts(ft.params))


@settings(max_examples=60)
@given(conversions())
def test_plan_matches_the_network_diff(scenario):
    controller, failures, goal = scenario
    ft = controller.flattree
    if isinstance(goal, FailureSet):
        target = heal(ft, goal)
    else:
        target = hybrid_configs(ft, goal.pod_modes())
    try:
        removed, added, moved = oracle.plan(ft, target, failures)
    except TopologyError:
        assume(False)  # the diff cannot plan a target that strands a server
    if isinstance(goal, FailureSet):
        plan = controller.recover(goal)
    else:
        plan = controller.apply_layout(goal)
    assert plan.links_removed == removed
    assert plan.links_added == added
    assert list(plan.servers_moved.items()) == list(moved.items())
    # No two units of a fat-tree plant share a cable, so the units'
    # dark links add up to the whole conversion's.
    dark = [cable for unit in plan.units for cable in unit.dark_links]
    assert sorted(dark, key=repr) == sorted(removed, key=repr)
    assert sorted(cid for unit in plan.units for cid in unit.converters) \
        == sorted(plan.config_changes)


@st.composite
def schedules(draw):
    k = draw(st.sampled_from(KS))
    params = FlatTreeDesign.for_fat_tree(k).params
    return (k, draw(layouts(params)), draw(layouts(params)),
            draw(st.sampled_from([1, 4, 16, 64])))


P4 = FlatTreeDesign.for_fat_tree(4).params


@settings(max_examples=40)
@given(schedules())
@example((4, uniform_layout(P4, Mode.CLOS),
          uniform_layout(P4, Mode.GLOBAL_RANDOM), 64))
def test_batches_darken_what_they_switch(case):
    """Each batch's dark links are the real cable change of that batch."""
    k, first, second, max_batch = case
    design = FlatTreeDesign.for_fat_tree(k)
    controller = Controller(FlatTree(design))
    controller.apply_layout(first)
    live = FlatTree(design)
    live.set_configs(controller.flattree.configs())
    plan = controller.apply_layout(second)
    sched = schedule(plan, live.materialize(), max_batch=max_batch)
    for batch, dark in zip(sched.batches, sched.dark_links):
        before = live.materialize()
        live.set_configs({cid: plan.config_changes[cid][1] for cid in batch})
        assert sorted(dark, key=repr) == sorted(
            oracle.cables_removed(before, live.materialize()), key=repr)
        for u, v in dark:
            before.remove_cable(u, v)
        assert is_connected(before)
    assert live.configs() == controller.flattree.configs()
