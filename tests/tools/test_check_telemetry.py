"""Edge cases for the runtime JSONL validator (tools/check_telemetry.py)."""

from __future__ import annotations

import json

from tools import check_telemetry


def write_events(tmp_path, events):
    path = tmp_path / "run.jsonl"
    path.write_text(
        "".join(json.dumps(e) + "\n" for e in events), encoding="utf-8")
    return str(path)


def counter(name, value=1.0):
    return {"ts": 0.5, "name": name, "kind": "counter", "value": value}


GOOD_HEAL = {
    "ts": 1.0, "name": "core.failures.heal", "kind": "event", "value": 1,
    "reconfigured": 2, "unrecoverable": 0, "t": 3.5,
}


def test_valid_stream_passes(tmp_path, capsys):
    path = write_events(tmp_path, [counter("a"), GOOD_HEAL])
    assert check_telemetry.main([path]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "2 events" in out


def test_unknown_kind_fails(tmp_path, capsys):
    bad = {"ts": 0.1, "name": "a", "kind": "metric", "value": 1}
    path = write_events(tmp_path, [bad])
    assert check_telemetry.main([path]) == 1
    err = capsys.readouterr().err
    assert "unknown 'kind'" in err
    assert ":1:" in err


def test_unregistered_event_name_fails(tmp_path, capsys):
    bad = {"ts": 0.1, "name": "made.up", "kind": "event", "value": 1}
    path = write_events(tmp_path, [bad])
    assert check_telemetry.main([path]) == 1
    assert "unknown event type 'made.up'" in capsys.readouterr().err


def test_missing_per_name_field_fails(tmp_path, capsys):
    heal = dict(GOOD_HEAL)
    del heal["t"]
    path = write_events(tmp_path, [heal])
    assert check_telemetry.main([path]) == 1
    assert "'t'" in capsys.readouterr().err


def test_link_sample_missing_utilization_fails(tmp_path, capsys):
    sample = {
        "ts": 0.2, "name": "monitor.link", "kind": "link_sample", "value": 1,
        "link": "core0-agg0", "t": 0.2, "rate": 5.0, "capacity": 10.0,
        "active_flows": 3,
    }
    path = write_events(tmp_path, [sample])
    assert check_telemetry.main([path]) == 1
    assert "utilization" in capsys.readouterr().err


def test_empty_file_fails(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    assert check_telemetry.main([str(path)]) == 1
    assert "no events" in capsys.readouterr().err


def test_whitespace_only_file_fails(tmp_path, capsys):
    path = tmp_path / "blank.jsonl"
    path.write_text("\n\n  \n", encoding="utf-8")
    assert check_telemetry.main([str(path)]) == 1
    assert "no events" in capsys.readouterr().err


def test_missing_file_fails(tmp_path, capsys):
    assert check_telemetry.main([str(tmp_path / "nope.jsonl")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_min_names_coverage_gate(tmp_path, capsys):
    path = write_events(tmp_path, [counter("a"), counter("b")])
    assert check_telemetry.main([path, "--min-names", "2"]) == 0
    capsys.readouterr()
    assert check_telemetry.main([path, "--min-names", "3"]) == 1
    err = capsys.readouterr().err
    assert "only 2 distinct names" in err and "need 3" in err


GOOD_DIFF_SESSION = {
    "ts": 10.0, "name": "perf.diff_session", "kind": "event", "value": 1,
    "base": "base.jsonl", "new": "new.jsonl", "grown": 1, "shrunk": 2,
}


def test_diff_session_passes(tmp_path, capsys):
    path = write_events(tmp_path, [GOOD_DIFF_SESSION])
    assert check_telemetry.main([path]) == 0
    assert "1 events" in capsys.readouterr().out


def test_diff_session_requires_labels_and_counts(tmp_path, capsys):
    for missing in ("base", "new", "grown", "shrunk"):
        bad = dict(GOOD_DIFF_SESSION)
        del bad[missing]
        path = write_events(tmp_path, [bad])
        assert check_telemetry.main([path]) == 1, missing
        assert f"'{missing}'" in capsys.readouterr().err


GOOD_SELFHEAL_ACTION = {
    "ts": 2.0, "name": "selfheal.action_succeeded", "kind": "event",
    "value": 1, "action": "reconvert", "rule": "link_hotspot",
    "latency_s": 0.09, "t": 2.4,
}


def test_selfheal_action_stream_passes(tmp_path, capsys):
    path = write_events(tmp_path, [GOOD_SELFHEAL_ACTION])
    assert check_telemetry.main([path]) == 0
    assert "OK" in capsys.readouterr().out


def test_selfheal_action_requires_rule(tmp_path, capsys):
    bad = dict(GOOD_SELFHEAL_ACTION)
    del bad["rule"]
    path = write_events(tmp_path, [bad])
    assert check_telemetry.main([path]) == 1
    assert "'rule'" in capsys.readouterr().err


def test_recover_noop_component_vocabulary(tmp_path, capsys):
    good = {"ts": 0.2, "name": "chaos.recover_noop", "kind": "event",
            "value": 1, "component": "cable", "target": "3-7", "t": 1.0}
    assert check_telemetry.main([write_events(tmp_path, [good])]) == 0
    bad = dict(good, component="gpu")
    path = write_events(tmp_path, [bad])
    assert check_telemetry.main([path]) == 1
    assert "component" in capsys.readouterr().err
