"""The benchmark at tiny sizes: metric names, output checks, tracing."""

import inspect
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import harness
import run
import workloads
from repro.mcf import MCFResult

PERF = Path(__file__).resolve().parent
SPEC = json.loads((PERF.parent / "BENCHMARK.json").read_text())

TINY = {
    "fig8_lp": dict(k=4, cluster_size=8),
    "fptas_a2a": dict(k=4, cluster_size=8),
    "fct_poisson": dict(k=4, flows=30),
    "reconvert_sdn": dict(k=4, pairs=10),
}


def tiny(name: str, seed: int = 1):
    return workloads.WORKLOADS[name](seed, None, **TINY[name])


def test_tiny_sizes_cover_every_workload():
    assert set(TINY) == set(workloads.WORKLOADS)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_reported(name, trace):
    result = run.result_of(harness.closed_loop(tiny(name), 0.0, trace),
                           SPEC, trace, setup_s=0.5)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for metric in wanted:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], float)


def inflate(solver):
    def wrong(problem, **kwargs):
        right = solver(problem, **kwargs)
        return MCFResult(right.throughput * 1.01, right.method, right.flows)
    return wrong


@pytest.mark.parametrize("name,solver", [
    ("fig8_lp", "solve_concurrent_exact"),
    ("fptas_a2a", "solve_concurrent_approx"),
])
def test_wrong_lambda_fails(monkeypatch, name, solver):
    workload = tiny(name)
    if name == "fptas_a2a":
        workload.lambda_star = workload.exact_lambda()
        monkeypatch.setattr(workloads, "solve_concurrent_approx",
                            lambda problem, epsilon: MCFResult(
                                workload.lambda_star * 1.01, "approx-gk"))
    else:
        monkeypatch.setattr(workloads, solver,
                            inflate(getattr(workloads, solver)))
    result = harness.closed_loop(workload, 0.0)
    assert 0 < result.failed <= result.attempted


def test_fptas_instance_is_one_the_experiments_approximate():
    from repro.experiments.common import EXACT_LP_VAR_LIMIT, solve_throughput

    problem = workloads.FptasA2a(1).problem()
    assert problem.num_groups * problem.num_arcs > EXACT_LP_VAR_LIMIT
    epsilon = inspect.signature(solve_throughput).parameters["epsilon"]
    assert workloads.EPSILON == epsilon.default


@pytest.mark.parametrize("name", sorted(TINY))
def test_layer_spans_cover_traced_jobs(name):
    result = harness.closed_loop(tiny(name), 0.0, trace=True)
    assert result.traced
    assert result.layers["bench.span_coverage"] >= 0.95


def test_host_clock_samples_inside_a_long_job():
    clock = harness.HostClock()
    handler = signal.getsignal(signal.SIGALRM)
    with clock.sampling():
        deadline = time.perf_counter() + 3 * harness.ROUND_INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) == handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert clock.inside_s > 0
    assert 0.1 < clock.settle() < 10


def test_tail_percentiles_need_ten_samples_beyond():
    for n in (5, 50, 100, 109, 110, 999, 1000, 5000):
        samples = [float(i) for i in range(n)]
        reported = harness.tail_percentiles(samples)
        for label, q in (("p90", 0.90), ("p99", 0.99), ("p999", 0.999)):
            value = harness.nearest_rank_quantile(samples, q)
            beyond = sum(s > value for s in samples)
            assert (label in reported) == (beyond >= 10), (n, label)
    assert list(harness.tail_percentiles(range(1000))) == ["p90", "p99"]


def write_set(path: Path, job_s: list, failed: int = 0) -> str:
    with open(path, "w") as out:
        for value in job_s:
            out.write(json.dumps({
                "workload": "fig8_lp", "attempted": 10, "failed": failed,
                "metrics": {"job_s": {"value": value, "unit": "s"}}}) + "\n")
    return str(path)


def test_compare_flags_a_median_beyond_its_bound(tmp_path, capsys):
    a = write_set(tmp_path / "a.jsonl", [1.00, 1.02, 0.98])
    assert run.compare(a, write_set(tmp_path / "b.jsonl", [1.01, 0.99, 1.0])) == 0
    assert run.compare(a, write_set(tmp_path / "c.jsonl", [1.3, 1.3, 1.3])) == 1
    assert "WORSE" in capsys.readouterr().out
    assert run.compare(a, write_set(tmp_path / "d.jsonl", [1.0] * 3, 1)) == 1


def test_refuses_to_run_without_the_plant(tmp_path):
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(PERF.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "fig8_lp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
