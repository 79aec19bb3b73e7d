"""End-to-end tests for the benchmarks/ conftest snapshot plumbing.

The real ``benchmarks/conftest.py`` is copied into a scratch directory
with two tiny stand-in benches and driven through a subprocess pytest
run (fixtures cannot be called directly), checking the promises of
the METRICS.json snapshot the CI ``metrics`` job uploads: the
``REPRO_TELEMETRY=0`` fast path writes none, each bench's registry
snapshot is isolated, and the file is sorted, reproducible JSON.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

DUMMY_BENCHES = '''\
"""Tiny stand-in benches for the conftest plumbing tests."""

from repro import obs


def test_bench_alpha(once):
    def work():
        obs.incr("dummy.alpha.calls", 3)
        return sum(range(1000))

    once(work)


def test_bench_beta(once):
    def work():
        obs.incr("dummy.beta.calls", 1)
        obs.observe("dummy.beta.lat_s", 0.5)
        return 1

    once(work)
'''


def run_bench_dir(tmp: Path, telemetry: str):
    bench_dir = tmp / "benchmarks"
    bench_dir.mkdir()
    shutil.copy(REPO_ROOT / "benchmarks" / "conftest.py",
                bench_dir / "conftest.py")
    (bench_dir / "test_bench_dummy.py").write_text(DUMMY_BENCHES,
                                                   encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO_ROOT / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    env["REPRO_TELEMETRY"] = telemetry
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--benchmark-only", str(bench_dir)],
        cwd=str(tmp), env=env, capture_output=True, text=True, timeout=180)
    return bench_dir, proc


@pytest.fixture(scope="module")
def bench_session(tmp_path_factory):
    """One shared telemetry-on run of the scratch bench directory."""
    tmp = tmp_path_factory.mktemp("benchrun")
    bench_dir, proc = run_bench_dir(tmp, telemetry="1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return bench_dir


class TestSnapshotPlumbing:
    def test_metrics_json_is_valid_sorted_json(self, bench_session):
        raw = (bench_session / "METRICS.json").read_text(encoding="utf-8")
        data = json.loads(raw)
        assert list(data) == sorted(data)
        # Written with sort_keys + indent, byte-for-byte reproducible.
        assert raw == json.dumps(data, indent=1, sort_keys=True) + "\n"

    def test_per_test_registry_isolation(self, bench_session):
        data = json.loads(
            (bench_session / "METRICS.json").read_text(encoding="utf-8"))
        alpha_key = next(k for k in data if "alpha" in k)
        beta_key = next(k for k in data if "beta" in k)
        assert data[alpha_key]["dummy.alpha.calls"]["value"] == 3
        assert "dummy.beta.calls" not in data[alpha_key]
        assert "dummy.alpha.calls" not in data[beta_key]
        assert data[beta_key]["dummy.beta.lat_s"]["count"] == 1

    def test_results_txt_accumulates(self, bench_session):
        text = (bench_session / "RESULTS.txt").read_text(encoding="utf-8")
        assert text.startswith("# reproduced tables")


def test_telemetry_zero_fast_path_writes_no_metrics(tmp_path):
    bench_dir, proc = run_bench_dir(tmp_path, telemetry="0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert not (bench_dir / "METRICS.json").exists()
    assert (bench_dir / "RESULTS.txt").exists()
