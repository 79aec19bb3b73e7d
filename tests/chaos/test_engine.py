"""Unit tests for the chaos engine: events, clock, schedules."""

from __future__ import annotations

import pytest

from repro.chaos import ChaosClock, ChaosEvent, ChaosSchedule, CommandFault
from repro.core.design import FlatTreeDesign
from repro.core.failures import Leg
from repro.core.flattree import FlatTree
from repro.errors import ConfigurationError
from repro.topology.elements import CoreSwitch


@pytest.fixture()
def ft():
    return FlatTree(FlatTreeDesign.for_fat_tree(4))


def first_cid(ft):
    return sorted(ft.converters)[0]


class TestChaosEvent:
    def test_constructors(self, ft):
        cid = first_cid(ft)
        event = ChaosEvent.leg_fail(0.5, cid, Leg.CORE)
        assert event.t == 0.5
        assert event.kind == "leg"
        assert event.action == "fail"
        assert event.target == (cid, Leg.CORE)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosEvent.switch_fail(-1.0, CoreSwitch(0))

    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosEvent(0.0, "explode", "leg", ())


class TestChaosClock:
    def test_advance_and_seek(self):
        clock = ChaosClock(1.0)
        assert clock.advance(0.5) == 1.5
        assert clock.seek(2.0) == 2.0

    def test_monotonic(self):
        clock = ChaosClock()
        clock.seek(1.0)
        with pytest.raises(ConfigurationError):
            clock.advance(-0.1)
        with pytest.raises(ConfigurationError):
            clock.seek(0.5)

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosClock(-1.0)


class TestCommandFaults:
    def test_null_schedule(self, ft):
        chaos = ChaosSchedule()
        assert chaos.is_null()
        assert chaos.command_fault(first_cid(ft), 1) is None

    def test_scripted_wins(self, ft):
        cid = first_cid(ft)
        chaos = ChaosSchedule(
            scripted_faults={(cid, 2): CommandFault.NACK}
        )
        assert not chaos.is_null()
        assert chaos.command_fault(cid, 1) is None
        assert chaos.command_fault(cid, 2) is CommandFault.NACK

    def test_draw_is_stateless_and_deterministic(self, ft):
        cid = first_cid(ft)
        chaos = ChaosSchedule(command_fault_rate=0.5, seed=3)
        draws = [chaos.command_fault(cid, a) for a in range(1, 20)]
        again = [chaos.command_fault(cid, a) for a in range(1, 20)]
        assert draws == again
        assert any(d is not None for d in draws)
        assert any(d is None for d in draws)

    def test_rate_one_always_faults(self, ft):
        chaos = ChaosSchedule(command_fault_rate=1.0)
        for attempt in range(1, 6):
            assert chaos.command_fault(first_cid(ft), attempt) is not None

    def test_attempts_one_based(self, ft):
        chaos = ChaosSchedule(command_fault_rate=1.0)
        with pytest.raises(ConfigurationError):
            chaos.command_fault(first_cid(ft), 0)

    def test_bad_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosSchedule(command_fault_rate=1.5)


class TestFailuresAt:
    def test_fold_fail_and_recover(self, ft):
        cid = first_cid(ft)
        chaos = ChaosSchedule(events=(
            ChaosEvent.leg_fail(1.0, cid, Leg.CORE),
            ChaosEvent.leg_recover(2.0, cid, Leg.CORE),
            ChaosEvent.switch_fail(1.5, CoreSwitch(0)),
        ))
        assert chaos.failures_at(0.5).is_empty()
        assert chaos.failures_at(1.2).dead_legs(cid) == {Leg.CORE}
        late = chaos.failures_at(3.0)
        assert late.dead_legs(cid) == frozenset()
        assert CoreSwitch(0) in late.switches
        assert chaos.last_event_time() == 2.0

    def test_events_sorted_on_construction(self, ft):
        cid = first_cid(ft)
        chaos = ChaosSchedule(events=(
            ChaosEvent.leg_fail(2.0, cid, Leg.AGG),
            ChaosEvent.leg_fail(1.0, cid, Leg.CORE),
        ))
        assert [e.t for e in chaos.events] == [1.0, 2.0]


class TestRecoverAudit:
    """Recover for a healthy component: silent no-op, audited once."""

    def test_never_failed_recover_flagged(self, ft):
        cid = first_cid(ft)
        chaos = ChaosSchedule(events=(
            ChaosEvent.leg_recover(1.0, cid, Leg.CORE),
        ))
        assert chaos.failures_at(2.0).is_empty()
        assert len(chaos.redundant_recoveries) == 1
        assert chaos.redundant_recoveries[0].t == 1.0

    def test_double_recover_second_flagged(self, ft):
        cid = first_cid(ft)
        chaos = ChaosSchedule(events=(
            ChaosEvent.leg_fail(1.0, cid, Leg.CORE),
            ChaosEvent.leg_recover(2.0, cid, Leg.CORE),
            ChaosEvent.leg_recover(3.0, cid, Leg.CORE),
        ))
        assert [e.t for e in chaos.redundant_recoveries] == [3.0]
        assert chaos.failures_at(4.0).is_empty()

    def test_matched_recover_not_flagged(self, ft):
        cid = first_cid(ft)
        chaos = ChaosSchedule(events=(
            ChaosEvent.leg_fail(1.0, cid, Leg.CORE),
            ChaosEvent.leg_recover(2.0, cid, Leg.CORE),
        ))
        assert chaos.redundant_recoveries == ()

    def test_cable_recover_matches_either_orientation(self):
        chaos = ChaosSchedule(events=(
            ChaosEvent.cable_fail(1.0, 3, 7),
            ChaosEvent.cable_recover(2.0, 7, 3),
        ))
        assert chaos.redundant_recoveries == ()

    def test_audit_event_emitted_and_valid(self, ft):
        from repro import obs
        from repro.obs.contract import check_event
        from repro.obs.sinks import MemorySink

        sink = MemorySink()
        obs.enable(sink)
        try:
            ChaosSchedule(events=(
                ChaosEvent.switch_recover(1.5, CoreSwitch(0)),
            ))
        finally:
            obs.disable()
        noops = [e for e in sink.events
                 if e.get("name") == "chaos.recover_noop"]
        assert len(noops) == 1
        assert noops[0]["component"] == "switch"
        assert noops[0]["t"] == 1.5
        assert check_event(noops[0]) == []


class TestRandomSchedules:
    def test_deterministic_for_seed(self, ft):
        a = ChaosSchedule.random(ft, seed=11, leg_fault_rate=0.5,
                                 switch_fault_rate=0.5,
                                 command_fault_rate=0.1)
        b = ChaosSchedule.random(ft, seed=11, leg_fault_rate=0.5,
                                 switch_fault_rate=0.5,
                                 command_fault_rate=0.1)
        assert a.events == b.events
        assert a.describe() == b.describe()

    def test_rates_zero_is_null(self, ft):
        chaos = ChaosSchedule.random(ft, seed=1)
        assert chaos.is_null()

    def test_events_within_duration(self, ft):
        chaos = ChaosSchedule.random(ft, seed=5, duration=2.0,
                                     leg_fault_rate=1.0)
        assert chaos.events
        assert all(0.0 <= e.t < 2.0 for e in chaos.events)

    def test_bad_duration_rejected(self, ft):
        with pytest.raises(ConfigurationError):
            ChaosSchedule.random(ft, duration=0.0)
