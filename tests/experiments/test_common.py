"""Unit tests for experiment plumbing (series, tables, dispatch)."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.experiments.common import (
    DEFAULT_APL_KS,
    ExperimentResult,
    PAPER_KS,
    Series,
    baseline_networks,
    flat_tree_network,
    ks_from_env,
    solve_throughput,
    throughput_of,
)
from repro.core.conversion import Mode
from repro.mcf.commodities import Commodity, build_flow_problem
from repro.topology.validate import assert_same_equipment


class TestSeriesAndResult:
    def make_result(self):
        result = ExperimentResult("exp", "k", "y")
        a = result.new_series("a")
        a.add(4, 1.0)
        a.add(8, 2.0)
        b = result.new_series("b")
        b.add(4, 3.0)
        return result

    def test_get_series(self):
        result = self.make_result()
        assert result.get("a").points[4] == 1.0
        with pytest.raises(KeyError):
            result.get("zzz")

    def test_xs_union(self):
        assert self.make_result().xs() == [4, 8]

    def test_table_renders_missing_as_dash(self):
        table = self.make_result().table()
        lines = table.splitlines()
        assert lines[0].split() == ["k", "a", "b"]
        assert "-" in lines[-1].split()

    def test_table_notes_appended(self):
        result = self.make_result()
        result.notes.append("hello")
        assert result.table().endswith("# hello")


class TestKsFromEnv:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_KS", raising=False)
        monkeypatch.delenv("REPRO_MAX_K", raising=False)
        assert ks_from_env(DEFAULT_APL_KS) == list(DEFAULT_APL_KS)

    def test_explicit_list(self, monkeypatch):
        monkeypatch.setenv("REPRO_KS", "4, 8 12")
        assert ks_from_env(DEFAULT_APL_KS) == [4, 8, 12]

    def test_max_k(self, monkeypatch):
        monkeypatch.delenv("REPRO_KS", raising=False)
        monkeypatch.setenv("REPRO_MAX_K", "10")
        assert ks_from_env(DEFAULT_APL_KS) == [k for k in PAPER_KS if k <= 10]


class TestFactories:
    def test_baselines_same_equipment(self):
        nets = baseline_networks(6, seed=0)
        assert_same_equipment(nets["fat-tree"], nets["random graph"])
        assert_same_equipment(nets["fat-tree"], nets["two-stage"])

    def test_flat_tree_network_modes(self):
        net = flat_tree_network(6, Mode.LOCAL_RANDOM)
        assert "local" in net.name


class TestSolverDispatch:
    def test_forced_methods_agree(self, triangle):
        problem = build_flow_problem(triangle, [Commodity(0, 1)])
        exact = solve_throughput(problem, force="exact")
        approx = solve_throughput(problem, force="approx", epsilon=0.05)
        assert approx <= exact + 1e-9
        assert approx >= 0.95 * exact

    def test_unknown_solver_rejected(self, triangle):
        problem = build_flow_problem(triangle, [Commodity(0, 1)])
        with pytest.raises(ReproError):
            solve_throughput(problem, force="magic")

    def test_auto_uses_exact_for_small(self, triangle):
        problem = build_flow_problem(triangle, [Commodity(0, 1)])
        assert solve_throughput(problem) == pytest.approx(2.0)

    def test_throughput_of_convenience(self, triangle):
        assert throughput_of(triangle, [Commodity(0, 1)]) == pytest.approx(2.0)
