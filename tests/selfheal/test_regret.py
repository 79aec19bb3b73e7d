"""MTTR/regret report: the closed loop must beat the no-op baseline."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.selfheal.regret import ARMS, run_regret


@pytest.fixture(scope="module")
def report():
    return run_regret(k=4, seed=7, duration=12.0, episodes=2)


class TestRegret:
    def test_all_arms_present(self, report):
        assert tuple(sorted(report.arms)) == tuple(sorted(ARMS))

    def test_closed_beats_noop(self, report):
        """The PR's acceptance gate: strictly better on both axes."""
        assert report.closed_beats_noop
        noop, closed = report.arms["noop"], report.arms["closed"]
        assert closed.time_in_alert_s < noop.time_in_alert_s
        assert closed.mttr_s < noop.mttr_s

    def test_oracle_lower_bounds_closed(self, report):
        oracle, closed = report.arms["oracle"], report.arms["closed"]
        assert oracle.time_in_alert_s <= closed.time_in_alert_s
        assert oracle.mttr_s <= closed.mttr_s

    def test_closed_loop_heals_the_fault(self, report):
        assert report.arms["closed"].stranded_servers == 0
        assert report.arms["noop"].stranded_servers > 0

    def test_ledger_links_every_action(self, report):
        assert len(report.ledger) > 0
        for entry in report.ledger.entries:
            assert entry.rule
            assert entry.alert_t >= 0.0

    def test_regret_versus_oracle(self, report):
        reg = report.regret()
        assert reg["time_in_alert_s"] >= 0.0
        assert reg["mttr_s"] >= 0.0

    def test_table_renders(self, report):
        text = report.table()
        for arm in ARMS:
            assert arm in text
        assert "closed loop beats no-op: yes" in text

    def test_deterministic_for_seed(self, report):
        again = run_regret(k=4, seed=7, duration=12.0, episodes=2)
        assert again.table() == report.table()
        assert again.ledger.to_json() == report.ledger.to_json()

    def test_validation(self):
        with pytest.raises(ReproError):
            run_regret(k=3)
        with pytest.raises(ReproError):
            run_regret(k=4, duration=1.0)


def test_synthetic_monitor_events_pass_the_wire_contract(monkeypatch):
    """The link events regret builds by hand for its aggregators are the
    ones a recorded monitor trace carries, so they hold to the same
    contract."""
    from repro.obs.contract import check_event
    from repro.selfheal import regret

    fed = []
    make_aggregator = regret.new_selfheal_aggregator

    def recording_aggregator(**kwargs):
        agg = make_aggregator(**kwargs)
        consume = agg.consume

        def record(event):
            fed.append(event)
            consume(event)

        agg.consume = record
        return agg

    monkeypatch.setattr(regret, "new_selfheal_aggregator",
                        recording_aggregator)
    run_regret(k=4, seed=7, duration=12.0, episodes=2)
    assert {e["kind"] for e in fed} == {"link_sample", "link_down", "link_up"}
    for event in fed:
        assert check_event(event) == [], event
