"""Unit tests for the centralized controller."""

from __future__ import annotations

import pytest

from repro.core.controller import Controller
from repro.core.conversion import Mode
from repro.core.design import FlatTreeDesign
from repro.core.flattree import FlatTree
from repro.core.zones import proportional_layout
from repro.errors import RoutingError
from repro.topology.fattree import build_fat_tree


@pytest.fixture()
def controller():
    return Controller(FlatTree(FlatTreeDesign.for_fat_tree(8)))


class TestConversionPlans:
    def test_initial_state_is_clos(self, controller):
        fat = build_fat_tree(8)
        assert set(controller.network.fabric.edges()) == set(fat.fabric.edges())

    def test_noop_plan(self, controller):
        plan = controller.apply_mode(Mode.CLOS)
        assert plan.is_noop()
        assert plan.stages == []
        assert plan.summary().startswith("0 converters")

    def test_global_plan_counts(self, controller):
        plan = controller.apply_mode(Mode.GLOBAL_RANDOM)
        # All 96 converters (m + n = 3 per pair, 32 pairs) change.
        assert plan.converter_count == 96
        assert len(plan.links_removed) == len(plan.links_added)
        assert len(plan.servers_moved) == 96
        assert len(plan.stages) == 4

    def test_plan_matches_materialization(self, controller):
        before = controller.network
        plan = controller.apply_mode(Mode.LOCAL_RANDOM)
        after = controller.network
        for server, (old, new) in plan.servers_moved.items():
            assert before.server_switch(server) == old
            assert after.server_switch(server) == new
        for u, v in plan.links_added:
            assert after.fabric.has_edge(u, v)

    def test_changed_cables_oriented_by_repr(self, controller):
        """Orientation must not follow frozenset (hash-seed) order."""
        plan = controller.apply_mode(Mode.GLOBAL_RANDOM)
        cables = plan.links_removed + plan.links_added
        assert cables
        assert all(repr(u) < repr(v) for u, v in cables)

    def test_partial_reconfiguration_smaller_plan(self, controller):
        controller.apply_mode(Mode.GLOBAL_RANDOM)
        plan = controller.apply_layout(
            proportional_layout(controller.flattree.params, 0.75)
        )
        # Only the local zone's Pods (and the new boundary) change.
        assert 0 < plan.converter_count < 96

    def test_history_recorded(self, controller):
        controller.apply_mode(Mode.GLOBAL_RANDOM)
        plan = controller.apply_mode(Mode.CLOS)
        assert controller.last_plan is plan

    def test_network_cache_invalidation(self, controller):
        first = controller.network
        assert controller.network is first  # cached
        controller.apply_mode(Mode.GLOBAL_RANDOM)
        assert controller.network is not first

    def test_layout_change_builds_the_network_once(self, controller,
                                                    monkeypatch):
        before = controller.network
        builds = []
        real = FlatTree.materialize

        def counting(self, *args, **kwargs):
            builds.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(FlatTree, "materialize", counting)
        controller.apply_layout(
            proportional_layout(controller.flattree.params, 0.5))
        assert controller.network is not before
        assert len(builds) == 1

    def test_plan_under_failure_diffs_like_with_like(self):
        """Links a plan brings up exist in the network it leaves."""
        from repro.chaos import ChaosEvent, ChaosSchedule
        from repro.core.converter import BLADE_A, ConverterId
        from repro.core.failures import Leg

        controller = Controller(FlatTree(FlatTreeDesign.for_fat_tree(4)))
        dead = ConverterId(pod=0, blade=BLADE_A, row=0, edge=0)
        chaos = ChaosSchedule(events=(ChaosEvent.leg_fail(0.0, dead,
                                                          Leg.CORE),))
        controller.execute_mode(Mode.GLOBAL_RANDOM, chaos=chaos)
        assert controller.degraded
        plan = controller.apply_mode(Mode.CLOS)
        assert len(plan.links_added) == 15
        for u, v in plan.links_added:
            assert controller.network.fabric.has_edge(u, v)

    def test_plan_leaves_a_stranded_server_out(self):
        """A target that strands a server plans it as unmoved, not a crash."""
        from repro.chaos import ChaosEvent, ChaosSchedule
        from repro.core.failures import Leg

        ft = FlatTree(FlatTreeDesign.for_fat_tree(4))
        controller = Controller(ft)
        victim = sorted(ft.four_port_ids())[0]
        chaos = ChaosSchedule(events=(ChaosEvent.leg_fail(0.0, victim,
                                                          Leg.EDGE),))
        controller.execute_mode(Mode.GLOBAL_RANDOM, chaos=chaos)
        assert controller.degraded
        server = ft.converters[victim].server
        assert server in controller.network.servers()
        plan = controller.apply_mode(Mode.CLOS)
        assert server not in plan.servers_moved
        assert server not in controller.network.servers()


class TestRouting:
    def test_clos_uses_two_level(self, controller):
        paths = controller.routes(0, 127)
        assert len(paths) == 1
        assert paths[0].hops == 4  # cross-pod two-level route

    def test_same_switch_route(self, controller):
        paths = controller.routes(0, 1)
        assert paths[0].hops == 0

    def test_converted_uses_ksp(self, controller):
        controller.apply_mode(Mode.GLOBAL_RANDOM)
        paths = controller.routes(0, 127)
        assert len(paths) > 1
        hops = [p.hops for p in paths]
        assert hops == sorted(hops)

    def test_route_cache_reused(self, controller):
        controller.apply_mode(Mode.GLOBAL_RANDOM)
        first = controller.routes(0, 127)
        assert controller.routes(0, 127) is first

    def test_route_selection_deterministic(self, controller):
        controller.apply_mode(Mode.GLOBAL_RANDOM)
        a = controller.route(0, 127, flow_key="x")
        b = controller.route(0, 127, flow_key="x")
        assert a == b

    def test_sdn_compile_and_walk(self, controller):
        controller.apply_mode(Mode.GLOBAL_RANDOM)
        program = controller.compile_sdn([(0, 127), (10, 90)])
        assert program.rule_count() > 0
        program.validate_on(controller.network)
        net = controller.network
        path = program.forward(
            net.server_switch(0), net.server_switch(127), 0
        )
        assert path.hops >= 1

    def test_routes_valid_on_fabric(self, controller):
        controller.apply_mode(Mode.LOCAL_RANDOM)
        for path in controller.routes(0, 60):
            path.validate_on(controller.network)

    def test_hybrid_routing_works_across_zones(self, controller):
        controller.apply_layout(
            proportional_layout(controller.flattree.params, 0.5)
        )
        params = controller.flattree.params
        src = params.pod_servers(0)[0]      # global zone
        dst = params.pod_servers(7)[0]      # local zone
        path = controller.route(src, dst)
        assert path.hops >= 1
