"""Ablation bench: exact LP vs Garg-Könemann approximation.

Times both solvers on the same Figure-7-style workload and checks that
the approximation's certified throughput is a feasible lower bound on
the LP optimum within (1 - ε) of it.  The FPTAS stops once its feasible
λ is within (1 - ε) of its own weak-duality upper bound, which holds
here; on all-to-all traffic λ / OPT measures 0.937 at k=14 (ε = 0.08,
after 2 phases) and 0.927–0.997 at k=4–8 (ε = 0.1).  This is the
measurement behind DESIGN.md's solver dispatch threshold.
"""

from __future__ import annotations

import random

import pytest
from conftest import show

from repro.experiments.common import ExperimentResult
from repro.experiments.fig7_broadcast import broadcast_workload
from repro.mcf.approx import solve_concurrent_approx
from repro.mcf.commodities import build_flow_problem
from repro.mcf.exact import solve_concurrent_exact
from repro.topology.clos import fat_tree_params
from repro.topology.fattree import build_fat_tree

EPSILON = 0.08
BENCH_K = 8


def solve_both(k: int):
    params = fat_tree_params(k)
    net = build_fat_tree(k)
    workload = broadcast_workload(params, "locality", random.Random(0))
    problem = build_flow_problem(net, workload)
    exact = solve_concurrent_exact(problem).throughput
    approx = solve_concurrent_approx(problem, epsilon=EPSILON).throughput
    return exact, approx


def test_bench_exact_solver(benchmark):
    params = fat_tree_params(BENCH_K)
    net = build_fat_tree(BENCH_K)
    problem = build_flow_problem(
        net, broadcast_workload(params, "locality", random.Random(0))
    )
    result = benchmark.pedantic(
        solve_concurrent_exact, args=(problem,), rounds=3, iterations=1
    )
    assert result.throughput > 0


def test_bench_approx_solver(benchmark):
    params = fat_tree_params(BENCH_K)
    net = build_fat_tree(BENCH_K)
    problem = build_flow_problem(
        net, broadcast_workload(params, "locality", random.Random(0))
    )
    result = benchmark.pedantic(
        solve_concurrent_approx,
        args=(problem,),
        kwargs={"epsilon": EPSILON},
        rounds=1,
        iterations=1,
    )
    assert result.throughput > 0


def test_bench_solver_agreement(once):
    exact, approx = once(solve_both, BENCH_K)
    table = ExperimentResult(
        experiment=f"ablation: solver agreement, k={BENCH_K} broadcast",
        x_label="k",
        y_label="throughput (lambda)",
    )
    table.new_series("exact LP").add(BENCH_K, exact)
    table.new_series("Garg-Konemann").add(BENCH_K, approx)
    show(table)
    assert approx <= exact + 1e-9
    assert approx >= (1 - EPSILON) * exact
    assert exact == pytest.approx(approx, rel=2 * EPSILON)
