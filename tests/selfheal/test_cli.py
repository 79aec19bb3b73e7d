"""CLI surface: flattree heal (replay, follow, regret, soak), end to end."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


@pytest.fixture()
def trace_path(tmp_path, hotspot_lines):
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(hotspot_lines) + "\n", encoding="utf-8")
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestHealReplay:
    def test_replay_prints_ledger(self, capsys, trace_path):
        code, out = run_cli(capsys, "heal", str(trace_path))
        assert code == 0
        assert "remediation ledger" in out
        assert "reconvert" in out
        assert "link_hotspot" in out

    def test_json_output_is_deterministic(self, capsys, trace_path):
        code, out1 = run_cli(capsys, "heal", str(trace_path), "--json")
        assert code == 0
        _, out2 = run_cli(capsys, "heal", str(trace_path), "--json")
        assert out1 == out2
        assert json.loads(out1)["schema"] == "flattree.selfheal/1"

    def test_expect_matching_actions(self, capsys, trace_path):
        code, _ = run_cli(capsys, "heal", str(trace_path),
                          "--expect", "reconvert")
        assert code == 0

    def test_expect_mismatch_exits_one(self, capsys, trace_path):
        code, _ = run_cli(capsys, "heal", str(trace_path),
                          "--expect", "heal")
        assert code == 1

    def test_out_writes_ledger_artifact(self, capsys, trace_path,
                                        tmp_path):
        out_path = tmp_path / "HEAL_LEDGER.json"
        code, _ = run_cli(capsys, "heal", str(trace_path),
                          "--out", str(out_path))
        assert code == 0
        body = json.loads(out_path.read_text(encoding="utf-8"))
        assert body["counts"]["succeeded"] >= 1

    def test_byte_identical_artifacts(self, capsys, trace_path, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "heal", str(trace_path), "--out", str(a))
        run_cli(capsys, "heal", str(trace_path), "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_trace_exits_two(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "heal", str(tmp_path / "nope.jsonl"))
        assert code == 2

    def test_no_trace_and_no_mode_exits_two(self, capsys):
        code, _ = run_cli(capsys, "heal")
        assert code == 2


class TestHealRegret:
    def test_regret_gate_passes(self, capsys):
        code, out = run_cli(capsys, "heal", "--regret", "--k", "4",
                            "--seed", "7")
        assert code == 0
        assert "closed loop beats no-op: yes" in out


class TestHealSoak:
    def test_soak_heals_and_exits_zero(self, capsys):
        code, out = run_cli(capsys, "heal", "--soak", "--k", "4",
                            "--flows", "12", "--seed", "3")
        assert code == 0
        assert "repair: loop healed" in out


class TestInfo:
    def test_info_mentions_selfheal(self, capsys):
        code, out = run_cli(capsys, "info")
        assert code == 0
        assert "selfheal:" in out
        assert "flattree heal" in out
