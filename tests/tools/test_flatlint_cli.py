"""flatlint CLI behavior, the repo-lints-clean self-check, and the
flatlint <-> pyproject mypy-gate sync."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tools.flatlint import MYPY_STRICT_PACKAGES, all_rules, capability_line
from tools.flatlint.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[2]

BAD_SOURCE = """\
import random


def pick(xs):
    return random.choice(xs)
"""


def write_bad(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(BAD_SOURCE, encoding="utf-8")
    return path


def test_repo_lints_clean():
    """The acceptance criterion: the whole repo carries zero findings
    across FT001-FT008 (every suppression in-tree is justified)."""
    code = main([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests"),
                 str(REPO_ROOT / "tools"), str(REPO_ROOT / "benchmarks")])
    assert code == 0


def test_findings_exit_1_and_text_report(tmp_path, capsys):
    path = write_bad(tmp_path)
    assert main([str(path)]) == 1
    out = capsys.readouterr().out
    assert "FT001" in out
    assert f"{path}:5:" in out
    assert "1 finding" in out


def test_clean_file_exits_0(tmp_path, capsys):
    path = tmp_path / "ok.py"
    path.write_text("x = 1\n", encoding="utf-8")
    assert main([str(path)]) == 0
    assert "clean" in capsys.readouterr().out


def test_json_report_shape(tmp_path, capsys):
    path = write_bad(tmp_path)
    assert main([str(path), "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["files_checked"] == 1
    assert report["counts"] == {"FT001": 1}
    (finding,) = report["findings"]
    assert finding["code"] == "FT001"
    assert finding["line"] == 5
    assert finding["path"].endswith("bad.py")
    assert finding["message"]


def test_select_limits_rules(tmp_path, capsys):
    path = tmp_path / "bad.py"
    path.write_text("def f(xs=[]):\n    return xs\n", encoding="utf-8")
    assert main([str(path), "--select", "FT001"]) == 0
    capsys.readouterr()
    assert main([str(path), "--select", "FT003"]) == 1


def test_unknown_select_code_is_usage_error(tmp_path, capsys):
    assert main([str(tmp_path), "--select", "FT999"]) == 2
    err = capsys.readouterr().err
    assert "FT999" in err and "known" in err


def test_missing_path_is_usage_error(tmp_path, capsys):
    assert main([str(tmp_path / "nope.py")]) == 2
    assert "flatlint:" in capsys.readouterr().err


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.code in out
        assert rule.summary in out


def test_capability_line_names_rules_and_strict_packages():
    line = capability_line()
    assert f"{len(all_rules())} rules" in line
    for rule in all_rules():
        assert rule.code in line
    for package in MYPY_STRICT_PACKAGES:
        assert package in line


def test_parse_error_is_engine_error_exit_3(tmp_path, capsys):
    path = tmp_path / "broken.py"
    path.write_text("def broken(:\n", encoding="utf-8")
    assert main([str(path)]) == 3
    assert "FT000" in capsys.readouterr().out


def test_out_writes_json_report_alongside_text(tmp_path, capsys):
    path = write_bad(tmp_path)
    report_path = tmp_path / "report.json"
    assert main([str(path), "--out", str(report_path)]) == 1
    assert "FT001" in capsys.readouterr().out  # text still on stdout
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["counts"] == {"FT001": 1}
    assert report["files_checked"] == 1


def test_graph_subcommand_prints_schema_and_edges(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text("def a():\n    b()\n\n\ndef b():\n    pass\n",
                    encoding="utf-8")
    assert main(["graph", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == "flatlint.callgraph/1"
    (edge,) = data["edges"]
    assert edge["caller"].endswith("mod.a")
    assert edge["callee"].endswith("mod.b")
    assert edge["kind"] == "direct"
    quals = {fn["qualname"] for fn in data["functions"]}
    assert any(q.endswith("mod.a") for q in quals)
    assert any(q.endswith("mod.b") for q in quals)


def test_graph_out_writes_file(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text("def a():\n    pass\n", encoding="utf-8")
    out = tmp_path / "graph.json"
    assert main(["graph", str(path), "--out", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["schema"] == "flatlint.callgraph/1"
    assert "wrote call graph" in capsys.readouterr().out


def _git(tmp_path, *argv):
    import subprocess

    subprocess.run(
        ["git", "-c", "user.email=t@t", "-c", "user.name=t", *argv],
        cwd=tmp_path, check=True, capture_output=True)


def test_changed_only_lints_only_the_diff(tmp_path, capsys, monkeypatch):
    """--changed-only scopes findings to git-changed files while the
    context paths keep the whole-program graph available."""
    _git(tmp_path, "init", "-q")
    clean = tmp_path / "clean.py"
    clean.write_text("import random\n\n\ndef pick(xs):\n"
                     "    return random.choice(xs)\n", encoding="utf-8")
    _git(tmp_path, "add", "clean.py")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SOURCE, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    # Only the untracked bad.py is linted: one file, one finding —
    # clean.py's (committed) finding is out of scope.
    assert main(["--changed-only", ".", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["files_checked"] == 1
    assert [f["path"] for f in report["findings"]] == ["bad.py"]


def test_changed_only_with_no_changes_is_clean(tmp_path, capsys,
                                               monkeypatch):
    _git(tmp_path, "init", "-q")
    path = tmp_path / "ok.py"
    path.write_text("x = 1\n", encoding="utf-8")
    _git(tmp_path, "add", "ok.py")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    monkeypatch.chdir(tmp_path)
    assert main(["--changed-only", "."]) == 0
    assert "nothing to lint" in capsys.readouterr().out


def test_mypy_strict_packages_match_pyproject():
    """flattree info and pyproject must advertise the same strict set."""
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads(
        (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    overrides = config["tool"]["mypy"]["overrides"]
    strict = {module
              for entry in overrides
              if entry.get("disallow_untyped_defs")
              for module in entry["module"]}
    assert strict == {f"{package}.*" for package in MYPY_STRICT_PACKAGES}
