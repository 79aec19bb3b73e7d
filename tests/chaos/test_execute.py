"""Resilient execution: clean-path identity, retry, rollback, heal."""

from __future__ import annotations

import pytest

from repro.chaos import ChaosEvent, ChaosSchedule, CommandFault
from repro.core.controller import Controller
from repro.core.conversion import Mode
from repro.core.design import FlatTreeDesign
from repro.core.failures import Leg
from repro.core.flattree import FlatTree
from repro.core.reconfigure import (
    MEMS_OPTICAL,
    RetryPolicy,
    execute,
    schedule,
)
from repro.topology.stats import is_connected
from repro.topology.validate import assert_valid


@pytest.fixture()
def controller():
    return Controller(FlatTree(FlatTreeDesign.for_fat_tree(8)))


def reference_plan(k=8):
    """The plan + before-network of a Clos -> global conversion."""
    ref = Controller(FlatTree(FlatTreeDesign.for_fat_tree(k)))
    before = ref.network
    plan = ref.apply_mode(Mode.GLOBAL_RANDOM)
    return ref, before, plan


class TestCleanPath:
    def test_timeline_byte_identical_to_schedule(self, controller):
        """With chaos off, execute() IS schedule(): same instants."""
        ref, before, plan = reference_plan()
        sched = schedule(plan, before)
        report = controller.execute_mode(Mode.GLOBAL_RANDOM, start=3.0)
        assert report.success
        assert report.timeline() == sched.batch_windows(3.0)
        assert report.finish == sched.batch_windows(3.0)[-1][1]
        assert report.retries == 0
        assert report.rolled_back_fraction == 0.0
        assert report.heal is None
        assert report.failures.is_empty()

    def test_final_configs_match_atomic_apply(self, controller):
        ref, _before, _plan = reference_plan()
        controller.execute_mode(Mode.GLOBAL_RANDOM)
        assert controller.flattree.configs() == ref.flattree.configs()
        assert not controller.degraded

    def test_null_chaos_same_as_none(self, controller):
        report = controller.execute_mode(
            Mode.GLOBAL_RANDOM, chaos=ChaosSchedule()
        )
        assert report.success
        assert report.problems == []

    def test_noop_plan(self, controller):
        controller.apply_mode(Mode.GLOBAL_RANDOM)
        report = controller.execute_mode(Mode.GLOBAL_RANDOM, start=1.0)
        assert report.success
        assert report.batches == []
        assert report.finish == 1.0


class TestRetry:
    def test_transient_faults_retried_to_completion(self, controller):
        """Two timeouts then success: conversion completes, slower."""
        victim = sorted(
            Controller(FlatTree(FlatTreeDesign.for_fat_tree(8)))
            .apply_mode(Mode.GLOBAL_RANDOM).config_changes
        )[0]
        chaos = ChaosSchedule(scripted_faults={
            (victim, 1): CommandFault.TIMEOUT,
            (victim, 2): CommandFault.NACK,
        })
        policy = RetryPolicy(max_attempts=4, command_timeout=1e-3,
                             base_backoff=1e-3)
        report = controller.execute_mode(
            Mode.GLOBAL_RANDOM, chaos=chaos, policy=policy
        )
        assert report.success
        assert report.retries == 2
        assert report.total_time > report.schedule.total_time
        assert_valid(report.network)
        assert is_connected(report.network)

    def test_retry_events_validate(self, controller):
        from repro import obs
        from repro.obs.contract import check_event
        from repro.obs.sinks import MemorySink

        victim = sorted(
            Controller(FlatTree(FlatTreeDesign.for_fat_tree(8)))
            .apply_mode(Mode.GLOBAL_RANDOM).config_changes
        )[0]
        chaos = ChaosSchedule(scripted_faults={
            (victim, 1): CommandFault.TIMEOUT,
        })
        sink = MemorySink()
        obs.enable(sink)
        try:
            controller.execute_mode(Mode.GLOBAL_RANDOM, chaos=chaos)
        finally:
            obs.disable()
        retries = [e for e in sink.events
                   if e.get("name") == "core.reconfigure.converter_retry"]
        assert len(retries) == 1
        assert retries[0]["fault"] == "timeout"
        assert retries[0]["attempt"] == 1
        for event in retries:
            assert check_event(event) == []


class TestRollback:
    def _exhaust(self, victim, attempts=4):
        return ChaosSchedule(scripted_faults={
            (victim, a): CommandFault.TIMEOUT
            for a in range(1, attempts + 1)
        })

    def test_exhausted_converter_rolls_batch_back(self, controller):
        ref, _before, plan = reference_plan()
        victim = sorted(plan.config_changes)[0]
        pre = dict(controller.flattree.configs())
        report = controller.execute_mode(
            Mode.GLOBAL_RANDOM, chaos=self._exhaust(victim),
            policy=RetryPolicy(max_attempts=4),
        )
        assert not report.success
        assert report.aborted_at == 0
        rolled = report.batches[-1]
        assert not rolled.committed
        assert "exhausted" in rolled.rollback_reason
        # The rolled-back batch's converters keep their pre-batch state.
        for cid in rolled.converters:
            assert controller.flattree.configs()[cid] is pre[cid]
        # The resulting network is consistent, valid, and connected.
        assert_valid(report.network)
        assert is_connected(report.network)
        assert report.connected
        assert report.problems == []

    def test_rollback_in_later_batch_keeps_prefix(self, controller):
        """Batches before the rollback stay committed (partial state)."""
        ref, before, plan = reference_plan()
        sched = schedule(plan, before, max_batch=16)
        assert sched.num_batches >= 2
        victim = sorted(sched.batches[1])[0]
        report = controller.execute_mode(
            Mode.GLOBAL_RANDOM, chaos=self._exhaust(victim), max_batch=16
        )
        assert not report.success
        assert report.aborted_at == 1
        committed = report.batches[0]
        assert committed.committed
        for cid in committed.converters:
            assert (controller.flattree.configs()[cid]
                    is plan.config_changes[cid][1])
        assert controller.degraded  # partially converted
        assert_valid(report.network)
        assert is_connected(report.network)
        # Routing still works on the partial network via ksp fallback.
        servers = sorted(report.network.servers())
        path = controller.route(servers[0], servers[-1])
        path.validate_on(report.network)

    def test_rollback_event_validates(self, controller):
        from repro import obs
        from repro.obs.contract import check_event
        from repro.obs.sinks import MemorySink

        _ref, _before, plan = reference_plan()
        victim = sorted(plan.config_changes)[0]
        sink = MemorySink()
        obs.enable(sink)
        try:
            controller.execute_mode(
                Mode.GLOBAL_RANDOM, chaos=self._exhaust(victim)
            )
        finally:
            obs.disable()
        rollbacks = [e for e in sink.events
                     if e.get("name") == "core.reconfigure.batch_rollback"]
        assert len(rollbacks) == 1
        assert check_event(rollbacks[0]) == []

    def test_batch_timeout_rolls_back(self, controller):
        _ref, _before, plan = reference_plan()
        victim = sorted(plan.config_changes)[0]
        chaos = ChaosSchedule(scripted_faults={
            (victim, a): CommandFault.TIMEOUT for a in range(1, 3)
        })
        policy = RetryPolicy(max_attempts=10, command_timeout=5e-3,
                             batch_timeout=6e-3)
        report = controller.execute_mode(
            Mode.GLOBAL_RANDOM, chaos=chaos, policy=policy
        )
        assert not report.success
        assert "timeout" in report.batches[-1].rollback_reason


class TestDoubleFaultRollback:
    """A command fault *during rollback* must not corrupt the abort."""

    def _double_fault(self, victim, restore_faults=1):
        # Attempts 1-4 exhaust the forward path; attempts 5+ hit the
        # restore commands the rollback issues on the same channel.
        return ChaosSchedule(scripted_faults={
            (victim, a): CommandFault.TIMEOUT
            for a in range(1, 4 + restore_faults + 1)
        })

    def test_rollback_absorbs_restore_fault(self, controller):
        _ref, _before, plan = reference_plan()
        victim = sorted(plan.config_changes)[0]
        pre = dict(controller.flattree.configs())
        report = controller.execute_mode(
            Mode.GLOBAL_RANDOM, chaos=self._double_fault(victim),
        )
        assert not report.success
        rolled = report.batches[-1]
        assert not rolled.committed
        assert "rollback absorbed 1 command fault(s)" in \
            rolled.rollback_reason
        # The abort still lands on the consistent pre-batch prefix.
        for cid in rolled.converters:
            assert controller.flattree.configs()[cid] is pre[cid]
        assert_valid(report.network)
        assert is_connected(report.network)
        assert report.problems == []

    def test_restore_fault_stretches_rollback_window(self, controller):
        _ref, _before, plan = reference_plan()
        victim = sorted(plan.config_changes)[0]
        policy = RetryPolicy(max_attempts=4, command_timeout=10e-3)
        clean = controller.execute_mode(
            Mode.GLOBAL_RANDOM,
            chaos=ChaosSchedule(scripted_faults={
                (victim, a): CommandFault.TIMEOUT for a in range(1, 5)
            }),
            policy=policy,
        )
        faulty = Controller(
            FlatTree(FlatTreeDesign.for_fat_tree(8))).execute_mode(
            Mode.GLOBAL_RANDOM, chaos=self._double_fault(victim),
            policy=policy,
        )
        # One absorbed restore timeout = one more command_timeout.
        assert faulty.finish == pytest.approx(
            clean.finish + policy.command_timeout)

    def test_unacknowledged_restore_reported(self, controller):
        _ref, _before, plan = reference_plan()
        victim = sorted(plan.config_changes)[0]
        # Faults through attempt 8 = 2 * max_attempts: the restore is
        # never ACKed and the report says so instead of lying.
        report = controller.execute_mode(
            Mode.GLOBAL_RANDOM, chaos=self._double_fault(
                victim, restore_faults=4),
        )
        assert not report.success
        reason = report.batches[-1].rollback_reason
        assert "restore unacknowledged on" in reason
        assert str(victim) in reason
        assert_valid(report.network)

    def test_restore_retry_events_validate(self, controller):
        from repro import obs
        from repro.obs.contract import check_event
        from repro.obs.sinks import MemorySink

        _ref, _before, plan = reference_plan()
        victim = sorted(plan.config_changes)[0]
        sink = MemorySink()
        obs.enable(sink)
        try:
            controller.execute_mode(
                Mode.GLOBAL_RANDOM, chaos=self._double_fault(victim),
            )
        finally:
            obs.disable()
        retries = [e for e in sink.events
                   if e.get("name") == "core.reconfigure.converter_retry"]
        # Forward attempts 1-4 emit 4 retry events, the restore fault
        # at attempt 5 emits one more.
        assert [e["attempt"] for e in retries] == [1, 2, 3, 4, 5]
        for event in retries:
            assert check_event(event) == []


class TestPlantFaultsAndHeal:
    def test_dead_leg_triggers_heal(self, controller):
        cid = sorted(controller.flattree.converters)[0]
        chaos = ChaosSchedule(events=(
            ChaosEvent.leg_fail(0.0, cid, Leg.EDGE),
        ))
        report = controller.execute_mode(Mode.GLOBAL_RANDOM, chaos=chaos)
        assert report.success
        assert not report.failures.is_empty()
        assert report.heal is not None
        assert_valid(report.network, require_connected=False)
        assert report.connected

    def test_recovered_fault_leaves_no_trace(self, controller):
        cid = sorted(controller.flattree.converters)[0]
        chaos = ChaosSchedule(events=(
            ChaosEvent.leg_fail(0.0, cid, Leg.EDGE),
            ChaosEvent.leg_recover(1e-6, cid, Leg.EDGE),
        ))
        report = controller.execute_mode(Mode.GLOBAL_RANDOM, chaos=chaos)
        assert report.success
        assert report.failures.is_empty()
        assert report.heal is None

    def test_monitor_receives_committed_blinks(self, controller):
        from repro.monitor import NetworkMonitor

        monitor = NetworkMonitor(controller.network)
        report = controller.execute_mode(
            Mode.GLOBAL_RANDOM, monitor=monitor
        )
        assert report.success
        downtime = monitor.downtime()
        assert downtime
        for dark in downtime.values():
            assert dark == pytest.approx(report.schedule.blink_window)
        assert monitor.open_dark_links() == []
