"""Benchmark harness configuration.

Each benchmark regenerates one paper artifact (figure/table) and prints
the reproduced table, so ``pytest benchmarks/ --benchmark-only`` doubles
as the repository's results generator:

* default parameters are laptop-fast (small k);
* set ``REPRO_KS="4 8 12"`` / ``REPRO_MAX_K=16`` to sweep further toward
  the paper's k = 32, and ``REPRO_SOLVER=approx`` to force the
  Garg-Könemann solver beyond exact-LP reach.

Experiments are seconds-long, so benches run one round by default
(pytest-benchmark's calibration would otherwise loop them for minutes).
"""

from __future__ import annotations

import json
import os

import pytest

from repro import obs

#: Reproduced tables are appended here (pytest captures stdout on
#: passing runs, so the file is the durable record of a bench session).
RESULTS_PATH = os.path.join(os.path.dirname(__file__), "RESULTS.txt")

#: Per-test registry snapshots from the last bench session: internal
#: counters (solver iterations, repair loops, cache hits) beside the
#: tables, uploaded by the CI ``metrics`` job.  Set
#: ``REPRO_TELEMETRY=0`` to benchmark the disabled-mode fast path
#: instead.
METRICS_PATH = os.path.join(os.path.dirname(__file__), "METRICS.json")

_snapshots: dict = {}


@pytest.fixture(scope="session", autouse=True)
def _fresh_results_file():
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        handle.write("# reproduced tables from the last benchmark run\n")
    collect = os.environ.get("REPRO_TELEMETRY", "1") != "0"
    if collect:
        obs.enable()  # metrics only: no sink, no per-event cost
    yield
    if collect:
        obs.disable()
        with open(METRICS_PATH, "w", encoding="utf-8") as handle:
            json.dump(_snapshots, handle, indent=1, sort_keys=True)
            handle.write("\n")


@pytest.fixture(autouse=True)
def _metrics_snapshot(request):
    """Isolate and record each bench's registry contents."""
    if not obs.enabled():
        yield
        return
    obs.registry.reset()
    yield
    snap = obs.registry.snapshot()
    if snap:
        _snapshots[request.node.nodeid] = snap


@pytest.fixture()
def once(benchmark):
    """Run a callable exactly once under the benchmark clock."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return runner


def show(result) -> None:
    """Print a reproduced table and append it to RESULTS.txt."""
    text = f"\n== {result.experiment} ==\n{result.table()}\n"
    print(text)
    with open(RESULTS_PATH, "a", encoding="utf-8") as handle:
        handle.write(text)
