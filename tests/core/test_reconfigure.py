"""Unit tests for reconfiguration scheduling and disruption."""

from __future__ import annotations

import pytest

from repro.core.controller import Controller
from repro.core.conversion import Mode
from repro.core.design import FlatTreeDesign
from repro.core.flattree import FlatTree
from repro.core.reconfigure import (
    MACH_ZEHNDER,
    MEMS_OPTICAL,
    PACKET_CHIP,
    Schedule,
    Technology,
    disruption,
    schedule,
)
from repro.errors import ConfigurationError
from repro.routing.base import Path
from repro.topology.elements import AggSwitch, CoreSwitch, EdgeSwitch
from repro.topology.stats import is_connected


@pytest.fixture()
def converted():
    """A controller plus the plan of a full Clos -> global conversion."""
    controller = Controller(FlatTree(FlatTreeDesign.for_fat_tree(8)))
    before = controller.network
    plan = controller.apply_mode(Mode.GLOBAL_RANDOM)
    return controller, before, plan


class TestTechnology:
    def test_profiles_exist(self):
        for tech in (MEMS_OPTICAL, MACH_ZEHNDER, PACKET_CHIP):
            assert tech.switch_delay >= 0
            assert tech.control_overhead >= 0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            Technology("bad", switch_delay=-1, control_overhead=0)


class TestSchedule:
    def test_covers_every_converter_once(self, converted):
        _controller, before, plan = converted
        sched = schedule(plan, before)
        scheduled = [cid for batch in sched.batches for cid in batch]
        assert sorted(scheduled) == sorted(plan.config_changes)

    def test_batches_respect_cap(self, converted):
        _controller, before, plan = converted
        sched = schedule(plan, before, max_batch=10)
        assert all(len(batch) <= 10 for batch in sched.batches)
        assert sched.num_batches >= len(plan.config_changes) // 10

    def test_times_scale_with_batches(self, converted):
        _controller, before, plan = converted
        small = schedule(plan, before, max_batch=8)
        large = schedule(plan, before, max_batch=64)
        assert small.total_time > large.total_time
        assert small.blink_window == large.blink_window

    def test_technology_changes_times(self, converted):
        _controller, before, plan = converted
        mems = schedule(plan, before, technology=MEMS_OPTICAL)
        mzi = schedule(plan, before, technology=MACH_ZEHNDER)
        assert mzi.blink_window < mems.blink_window
        assert mzi.total_time < mems.total_time

    def test_noop_plan_empty_schedule(self, converted):
        controller, _before, _plan = converted
        noop = controller.apply_mode(Mode.GLOBAL_RANDOM)
        sched = schedule(noop, controller.network)
        assert sched.num_batches == 0
        assert sched.total_time == 0.0

    def test_batches_never_partition_network(self, converted):
        """Re-verify the schedule's own invariant independently."""
        _controller, before, plan = converted
        sched = schedule(plan, before, max_batch=16)
        assert len(sched.dark_links) == sched.num_batches
        for links in sched.dark_links:
            scratch = before.copy()
            for u, v in links:
                scratch.remove_cable(u, v)
            assert is_connected(scratch)

    def test_summary_readable(self, converted):
        _controller, before, plan = converted
        text = schedule(plan, before).summary()
        assert "batches" in text and "ms" in text

    def test_bad_batch_cap(self, converted):
        _controller, before, plan = converted
        with pytest.raises(ConfigurationError):
            schedule(plan, before, max_batch=0)


class TestBatchWindows:
    def test_arithmetic_decomposes_total_time(self, converted):
        _controller, before, plan = converted
        sched = schedule(plan, before, max_batch=8)
        windows = sched.batch_windows(start=10.0)
        assert len(windows) == sched.num_batches
        tech = sched.technology
        for i, (down, up) in enumerate(windows):
            begin = 10.0 + i * (tech.control_overhead + tech.switch_delay)
            assert down == pytest.approx(begin + tech.control_overhead)
            assert up - down == pytest.approx(sched.blink_window)
        assert windows[-1][1] == pytest.approx(10.0 + sched.total_time)

    def test_dark_links_parallel_batches(self, converted):
        _controller, before, plan = converted
        sched = schedule(plan, before)
        assert len(sched.dark_links) == sched.num_batches
        # Every removed link blinks in exactly one batch.
        blinked = [frozenset(pair)
                   for links in sched.dark_links for pair in links]
        assert set(blinked) == {
            frozenset(pair) for pair in plan.links_removed
        }

    def test_empty_schedule_has_no_windows(self):
        sched = Schedule(technology=MEMS_OPTICAL)
        assert sched.batch_windows() == []


def monitored_conversion(controller, mode, **kwargs):
    """Execute a conversion with a monitor; return (report, monitor)."""
    from repro.monitor import NetworkMonitor

    monitor = NetworkMonitor(controller.network)
    report = controller.execute_mode(mode, monitor=monitor, **kwargs)
    return report, monitor


class TestAudit:
    """The downtime ledger :func:`execute` writes from its schedule."""

    def test_ledger_matches_blink_window(self):
        """The event-level ledger reproduces the batch arithmetic."""
        controller = Controller(FlatTree(FlatTreeDesign.for_fat_tree(8)))
        report, monitor = monitored_conversion(
            controller, Mode.GLOBAL_RANDOM, technology=MEMS_OPTICAL,
            start=1.0,
        )
        sched = report.schedule
        assert report.finish == pytest.approx(1.0 + sched.total_time)
        downtime = monitor.downtime()
        assert downtime
        for dark in downtime.values():
            assert dark == pytest.approx(sched.blink_window)
        assert monitor.open_dark_links() == []
        assert monitor.total_dark_time() == pytest.approx(
            len(downtime) * sched.blink_window
        )

    def test_parallel_cables_blink_once_per_batch(self):
        """Parallel cables of one bundle in a batch yield one window."""
        from repro.core.wiring import profiled_pattern
        from repro.topology.clos import ClosParams

        # A 2:1 oversubscribed plant: converting global-random back to
        # Clos blinks parallel aggregation-core cables in one batch.
        params = ClosParams(pods=6, d=4, r=2, h=4, servers_per_edge=4)
        design = FlatTreeDesign(params=params, m=1, n=1,
                                pattern=profiled_pattern(params, 1),
                                ring=True)
        controller = Controller(FlatTree(design))
        controller.execute_mode(Mode.GLOBAL_RANDOM)
        report, monitor = monitored_conversion(controller, Mode.CLOS)
        sched = report.schedule
        windows = sched.batch_windows()
        expected = {}
        parallel = 0
        for window, links in zip(windows, sched.dark_links):
            keys = [frozenset(link) for link in links]
            parallel += len(keys) - len(set(keys))
            for key in dict.fromkeys(keys):
                expected.setdefault(key, []).append(window)
        assert parallel > 0
        for key, batch_windows in expected.items():
            u, v = tuple(key)
            assert monitor.dark_windows(u, v) == [
                pytest.approx(w) for w in batch_windows
            ]


class TestDisruption:
    def test_counts_paths_over_dark_links(self, converted):
        _controller, _before, plan = converted
        u, v = plan.links_removed[0]
        hit = (1, Path((u, v)))
        # A same-Pod edge-agg hop never blinks (bipartite links are
        # static in every mode).
        miss = (2, Path((EdgeSwitch(0, 0), AggSwitch(0, 0))))
        assert disruption(plan, [hit, miss]) == pytest.approx(0.5)

    def test_empty_flows_rejected(self, converted):
        _controller, _before, plan = converted
        with pytest.raises(ConfigurationError):
            disruption(plan, [])

    def test_full_conversion_disrupts_core_paths(self, converted):
        """Most agg-core circuits blink in a full conversion."""
        _controller, before, plan = converted
        flows = []
        fid = 0
        for core in list(before.switches_of_kind("core"))[:8]:
            for nbr in before.fabric[core]:
                flows.append((fid, Path((nbr, core))))
                fid += 1
        assert disruption(plan, flows) > 0.5


class TestAuditEdgeCases:
    """Empty plans and zero blink must not ledger anything."""

    def test_empty_plan_empty_ledger(self):
        controller = Controller(FlatTree(FlatTreeDesign.for_fat_tree(4)))
        report, monitor = monitored_conversion(controller, Mode.CLOS,
                                               start=4.0)
        assert report.finish == 4.0
        assert monitor.downtime() == {}
        assert monitor.open_dark_links() == []

    def test_zero_blink_window_empty_ledger(self):
        """A zero-delay technology must not record [t, t] windows."""
        instant = Technology("instant", switch_delay=0.0,
                             control_overhead=5e-3)
        controller = Controller(FlatTree(FlatTreeDesign.for_fat_tree(8)))
        report, monitor = monitored_conversion(
            controller, Mode.GLOBAL_RANDOM, technology=instant,
        )
        sched = report.schedule
        assert sched.num_batches > 0
        assert sched.blink_window == 0.0
        assert report.finish == pytest.approx(sched.total_time)
        assert monitor.downtime() == {}
        assert monitor.total_dark_time() == 0.0


class TestPairAtomicBatches:
    def test_pairs_never_split_across_batches(self, converted):
        controller, before, plan = converted
        pairs = controller.flattree.pairs
        sched = schedule(plan, before, max_batch=2)
        position = {}
        for index, batch in enumerate(sched.batches):
            for cid in batch:
                position[cid] = index
        in_plan = set(plan.config_changes)
        split = [
            (left, right) for left, right in pairs
            if left in in_plan and right in in_plan
            and position[left] != position[right]
        ]
        assert split == []
        scheduled = [cid for batch in sched.batches for cid in batch]
        assert sorted(scheduled) == sorted(plan.config_changes)



    @pytest.mark.parametrize("k", [4, 8, 12])
    @pytest.mark.parametrize("max_batch", [16, 64])
    @pytest.mark.parametrize("mode", [Mode.GLOBAL_RANDOM, Mode.LOCAL_RANDOM])
    def test_scheduled_batches_commit_on_a_fresh_plant(self, k, max_batch,
                                                        mode):
        """The batches `flattree schedule` reports are legal commits."""
        design = FlatTreeDesign.for_fat_tree(k)
        controller = Controller(FlatTree(design))
        before = controller.network
        plan = controller.apply_mode(mode)
        sched = schedule(plan, before, max_batch=max_batch)
        fresh = FlatTree(design)
        for batch in sched.batches:
            fresh.set_configs(
                {cid: plan.config_changes[cid][1] for cid in batch})
        assert fresh.configs() == controller.flattree.configs()
        report = Controller(FlatTree(design)).execute_mode(
            mode, max_batch=max_batch)
        assert report.schedule.batches == sched.batches


class TestRetryPolicy:
    def test_backoff_caps(self):
        from repro.core.reconfigure import RetryPolicy

        policy = RetryPolicy(base_backoff=1e-3, backoff_factor=2.0,
                             max_backoff=3e-3)
        assert policy.backoff(1) == pytest.approx(1e-3)
        assert policy.backoff(2) == pytest.approx(2e-3)
        assert policy.backoff(3) == pytest.approx(3e-3)  # capped
        assert policy.backoff(10) == pytest.approx(3e-3)

    def test_invalid_policies_rejected(self):
        from repro.core.reconfigure import RetryPolicy

        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(batch_timeout=0.0)
