"""Tooling bench: whole-repo flatlint runtime stays inner-loop fast.

ISSUE 9 acceptance bar: the whole-program pass — parsing every
``.py`` file, building the symbol table and call graph, and running
all seven rules including the interprocedural FT006/FT007 analyses —
must finish the full repository in at most :data:`BUDGET_S` seconds.
The budget is deliberately loose (the pass runs in a few seconds on a
laptop) so only an algorithmic regression in the graph builder or a
reachability blow-up can trip it, not CI jitter.

The bench reports files, findings, edge count and wall time, so its
table shows how analysis cost scales as the repo grows.
"""

from __future__ import annotations

import os
import sys
import time

from conftest import show

from repro.experiments.common import ExperimentResult

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Hard runtime ceiling for the whole-repo pass, in seconds.
BUDGET_S = 30.0

#: The same path set `make lint` checks.
LINT_PATHS = ("src", "tests", "tools", "benchmarks")


def run_whole_repo_lint() -> ExperimentResult:
    sys.path.insert(0, REPO_ROOT)
    try:
        from tools.flatlint import all_rules
        from tools.flatlint.engine import lint_paths
    finally:
        sys.path.pop(0)
    paths = [os.path.join(REPO_ROOT, p) for p in LINT_PATHS]
    begin = time.perf_counter()
    findings, project = lint_paths(paths, all_rules())
    edges = len(project.callgraph().edges)
    wall = time.perf_counter() - begin
    result = ExperimentResult(
        experiment="tooling: whole-repo flatlint runtime",
        x_label="files",
        y_label="wall-clock (s)",
    )
    result.new_series("flatlint").add(len(project.files), wall)
    result.notes.append(
        f"{len(project.files)} files, {len(findings)} finding(s), "
        f"{edges} call edges in {wall:.2f}s (budget {BUDGET_S:.0f}s)")
    return result


def test_bench_lint_runtime(once):
    result = once(run_whole_repo_lint)
    show(result)
    (files, wall), = result.get("flatlint").points.items()
    assert files > 100  # the pass really covered the repo
    assert wall <= BUDGET_S
