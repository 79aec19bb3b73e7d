"""Unit tests for failure injection and self-recovery."""

from __future__ import annotations

import pytest

from repro.core.controller import Controller
from repro.core.conversion import Mode, convert, mode_configs
from repro.core.converter import CIRCUITS, ConverterConfig
from repro.core.design import FlatTreeDesign
from repro.core.failures import FailureSet, Leg, heal
from repro.core.flattree import FlatTree
from repro.topology.elements import CoreSwitch
from repro.topology.stats import is_connected


@pytest.fixture()
def ft():
    return FlatTree(FlatTreeDesign.for_fat_tree(8))


def first_converter(ft, blade="A"):
    ids = ft.four_port_ids() if blade == "A" else ft.six_port_ids()
    return sorted(ids)[0]


class TestFailureSet:
    def test_of_legs(self, ft):
        cid = first_converter(ft)
        failures = FailureSet.of_legs((cid, Leg.CORE), (cid, Leg.EDGE))
        assert failures.dead_legs(cid) == {Leg.CORE, Leg.EDGE}
        assert not failures.is_empty()

    def test_empty(self):
        assert FailureSet().is_empty()

    def test_switch_failure_kills_cables(self, ft):
        failures = FailureSet(switches=frozenset({CoreSwitch(0)}))
        assert failures.cable_dead(CoreSwitch(0), CoreSwitch(1))


class TestSurvivingLinks:
    """The circuit table decides which circuits a failure set kills."""

    def test_no_failures_full_links(self, ft):
        conv = ft.converters[first_converter(ft)]
        links = conv.own_links(ConverterConfig.DEFAULT, FailureSet())
        assert len(links) == 2

    def test_dead_core_leg_kills_ac_circuit(self, ft):
        cid = first_converter(ft)
        conv = ft.converters[cid]
        failures = FailureSet.of_legs((cid, Leg.CORE))
        links = conv.own_links(ConverterConfig.DEFAULT, failures)
        assert links == [("attach", conv.server, conv.edge)]

    def test_dead_edge_leg_strands_server_in_default(self, ft):
        cid = first_converter(ft)
        conv = ft.converters[cid]
        failures = FailureSet.of_legs((cid, Leg.EDGE))
        links = conv.own_links(ConverterConfig.DEFAULT, failures)
        assert all(link[0] != "attach" for link in links)
        # ... but LOCAL keeps the server alive through the agg leg.
        links = conv.own_links(ConverterConfig.LOCAL, failures)
        assert ("attach", conv.server, conv.agg) in links

    def test_table_names_every_circuit_once(self):
        """Every config attaches the server exactly once (heal's score
        counts attachments); only paired configs drive the bundle."""
        for config, circuits in CIRCUITS.items():
            side = [c for c in circuits if c.side]
            assert bool(side) == (config in (ConverterConfig.SIDE,
                                             ConverterConfig.CROSS))
            assert [c.a for c in circuits].count(Leg.SERVER) == 1
            for circuit in circuits:
                assert Leg.SIDE not in (circuit.a, circuit.b)
                assert circuit.side or circuit.a is not circuit.b

    def test_dead_side_leg_darkens_bundle_for_both_ends(self, ft):
        from repro.core.conversion import mode_configs
        from repro.core.converter import pair_links

        configs = mode_configs(ft, Mode.GLOBAL_RANDOM)
        left, right = ft.pairs[0]
        pair = ft.converters[left], ft.converters[right]
        assert len(pair_links(*pair, configs, FailureSet())) == 2
        for dead in (left, right):
            failures = FailureSet.of_legs((dead, Leg.SIDE))
            assert pair_links(*pair, configs, failures) == []


class TestMaterializeWithFailures:
    def test_no_failures_matches_materialize(self, ft):
        ft.set_configs(mode_configs(ft, Mode.GLOBAL_RANDOM))
        degraded = ft.materialize(failures=FailureSet())
        normal = ft.materialize()
        assert set(degraded.fabric.edges()) == set(normal.fabric.edges())
        assert degraded.num_servers == normal.num_servers

    def test_stranded_server_counted(self, ft):
        cid = first_converter(ft)
        conv = ft.converters[cid]
        failures = FailureSet.of_legs((cid, Leg.EDGE))
        degraded = ft.materialize(failures=failures)
        assert conv.server not in set(degraded.servers())

    def test_dead_switch_removed(self, ft):
        failures = FailureSet(switches=frozenset({CoreSwitch(3)}))
        degraded = ft.materialize(failures=failures)
        assert CoreSwitch(3) not in set(degraded.switches())
        assert is_connected(degraded)

    def test_dead_direct_cable_removed(self, ft):
        u, v = ft._direct_cables[0]
        failures = FailureSet(cables=frozenset({frozenset((u, v))}))
        degraded = ft.materialize(failures=failures)
        normal = ft.materialize()
        assert degraded.capacity(u, v) == normal.capacity(u, v) - 1


class TestHeal:
    def test_heal_reattaches_server(self, ft):
        """EDGE leg dies in default config -> healing flips to local."""
        cid = first_converter(ft)
        failures = FailureSet.of_legs((cid, Leg.EDGE))
        assignment = heal(ft, failures)
        assert assignment[cid] is ConverterConfig.LOCAL
        ft.set_configs(assignment)
        degraded = ft.materialize(failures=failures)
        assert ft.converters[cid].server in set(degraded.servers())

    def test_heal_is_stable_without_failures(self, ft):
        ft.set_configs(mode_configs(ft, Mode.GLOBAL_RANDOM))
        assignment = heal(ft, FailureSet())
        assert assignment == ft.configs()

    def test_heal_six_port_side_bundle_cut(self, ft):
        """A cut side bundle forces the pair off side/cross."""
        ft.set_configs(mode_configs(ft, Mode.GLOBAL_RANDOM))
        left, right = ft.pairs[0]
        failures = FailureSet.of_legs((left, Leg.SIDE))
        assignment = heal(ft, failures)
        from repro.core.converter import PAIRED_CONFIGS

        assert assignment[left] not in PAIRED_CONFIGS
        assert assignment[right] not in PAIRED_CONFIGS
        ft.set_configs(assignment)  # must be a legal assignment

    def test_heal_keeps_servers_attached_network_wide(self, ft):
        """Random multi-failure: healing strands no recoverable server."""
        ft.set_configs(mode_configs(ft, Mode.GLOBAL_RANDOM))
        victims = sorted(ft.six_port_ids())[:3]
        failures = FailureSet.of_legs(
            *[(cid, Leg.CORE) for cid in victims]
        )
        ft.set_configs(heal(ft, failures))
        degraded = ft.materialize(failures=failures)
        # A dead CORE leg still leaves agg/edge legs; every server must
        # therefore be reattached somewhere.
        assert degraded.num_servers == ft.params.num_servers


class TestControllerRecover:
    def test_recover_produces_plan_and_reroutes(self):
        controller = Controller(FlatTree(FlatTreeDesign.for_fat_tree(8)))
        controller.apply_mode(Mode.GLOBAL_RANDOM)
        cid = sorted(controller.flattree.six_port_ids())[0]
        failures = FailureSet.of_legs((cid, Leg.SIDE))
        plan = controller.recover(failures)
        assert plan.converter_count >= 2  # the pair moves together
        degraded = controller.flattree.materialize(failures=failures)
        assert is_connected(degraded)
        assert degraded.num_servers == controller.flattree.params.num_servers


class TestFailureSetValidation:
    """Unknown ids must fail loudly, naming the offender."""

    def test_unknown_converter_rejected(self, ft):
        from repro.core.converter import ConverterId
        from repro.errors import ConfigurationError

        ghost = ConverterId(pod=99, blade="A", row=0, edge=0)
        failures = FailureSet.of_legs((ghost, Leg.CORE))
        with pytest.raises(ConfigurationError, match="unknown converter"):
            ft.materialize(failures=failures)
        with pytest.raises(ConfigurationError, match="99"):
            heal(ft, failures)

    def test_unknown_switch_rejected(self, ft):
        from repro.errors import ConfigurationError

        failures = FailureSet(
            switches=frozenset({CoreSwitch(10_000)})
        )
        with pytest.raises(ConfigurationError, match="unknown switch"):
            failures.validate(ft)

    def test_unknown_cable_endpoint_rejected(self, ft):
        from repro.errors import ConfigurationError

        failures = FailureSet(cables=frozenset({
            frozenset((CoreSwitch(0), CoreSwitch(10_000)))
        }))
        with pytest.raises(ConfigurationError, match="dead cable"):
            ft.materialize(failures=failures)

    def test_known_ids_pass(self, ft):
        cid = first_converter(ft)
        failures = FailureSet.of_legs((cid, Leg.CORE))
        failures.validate(ft)  # must not raise


class TestHealSideBundle:
    """Joint pairing decisions under SIDE-leg loss (satellite #3)."""

    def _paired(self, ft):
        from repro.core.conversion import mode_configs

        ft.set_configs(mode_configs(ft, Mode.GLOBAL_RANDOM))
        return ft.pairs[0]

    def test_both_peers_lose_side_leg(self, ft):
        from repro.core.converter import PAIRED_CONFIGS

        left, right = self._paired(ft)
        failures = FailureSet.of_legs((left, Leg.SIDE), (right, Leg.SIDE))
        assignment = heal(ft, failures)
        assert assignment[left] not in PAIRED_CONFIGS
        assert assignment[right] not in PAIRED_CONFIGS
        ft.set_configs(assignment)
        degraded = ft.materialize(failures=failures)
        servers = set(degraded.servers())
        assert ft.converters[left].server in servers
        assert ft.converters[right].server in servers

    def test_one_peer_loses_side_leg(self, ft):
        """One dead SIDE leg kills the bundle for both ends jointly."""
        from repro.core.converter import PAIRED_CONFIGS

        left, right = self._paired(ft)
        failures = FailureSet.of_legs((right, Leg.SIDE))
        assignment = heal(ft, failures)
        # The pair must move together: half a pair is illegal.
        assert assignment[left] not in PAIRED_CONFIGS
        assert assignment[right] not in PAIRED_CONFIGS
        ft.set_configs(assignment)

    def test_unrecoverable_server_reported_not_asserted(self, ft):
        """A dead SERVER leg strands the server in every config."""
        from repro.core.failures import heal_report

        left, right = self._paired(ft)
        failures = FailureSet.of_legs(
            (left, Leg.SERVER), (left, Leg.SIDE), (right, Leg.SIDE)
        )
        outcome = heal_report(ft, failures)
        assert left in outcome.unrecoverable
        assert right not in outcome.unrecoverable
        ft.set_configs(outcome.assignment)
        degraded = ft.materialize(failures=failures)
        assert ft.converters[left].server not in set(degraded.servers())
        assert is_connected(degraded)

    def test_heal_report_counts_and_event(self, ft):
        from repro import obs
        from repro.core.failures import heal_report
        from repro.obs.sinks import MemorySink

        left, _right = self._paired(ft)
        failures = FailureSet.of_legs((left, Leg.SIDE))
        sink = MemorySink()
        obs.enable(sink)
        try:
            outcome = heal_report(ft, failures, t=2.5)
        finally:
            obs.disable()
        events = sink.events
        assert len(outcome.reconfigured) >= 2
        assert outcome.unrecoverable == ()
        heals = [e for e in events if e.get("name") == "core.failures.heal"]
        assert len(heals) == 1
        assert heals[0]["t"] == 2.5
        assert heals[0]["reconfigured"] == len(outcome.reconfigured)
