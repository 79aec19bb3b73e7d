"""Integration tests: each experiment reproduces the paper's shape.

These are the repository's acceptance tests.  They run the real
experiment pipelines at small k and assert the qualitative claims of the
paper's evaluation section (who wins, by roughly what factor) — not
absolute numbers, which depend on the substrate.
"""

from __future__ import annotations

from statistics import mean, stdev

import pytest

from repro.experiments.fig5_pathlength import mn_for, run_fig5
from repro.experiments.fig6_pod_pathlength import run_fig6
from repro.experiments.fig7_broadcast import (
    incast_equals_broadcast,
    run_fig7,
)
from repro.experiments.fig8_alltoall import run_fig8
from repro.experiments.hybrid import hybrid_point
from repro.core.design import FlatTreeDesign
from repro.experiments.common import flat_tree_network
from repro.core.conversion import Mode


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig5(ks=(4, 8, 12))

    def test_flat_tree_beats_fat_tree(self, result):
        flat = result.get("flat-tree(m=1k/8,n=2k/8)")
        fat = result.get("fat-tree")
        for k in flat.points:
            assert flat.points[k] < fat.points[k]

    def test_flat_tree_close_to_random(self, result):
        """Paper: within ~5%; we allow 10% at the small-k hard cases."""
        flat = result.get("flat-tree(m=1k/8,n=2k/8)")
        rnd = result.get("random graph")
        for k in flat.points:
            assert flat.points[k] <= rnd.points[k] * 1.10

    def test_random_graph_is_lowest(self, result):
        rnd = result.get("random graph")
        for series in result.series:
            for k, value in series.points.items():
                assert value >= rnd.points[k] - 1e-9

    def test_mn_for_rounding(self):
        assert mn_for(8, 1, 2) == (1, 2)
        assert mn_for(4, 1, 2) == (1, 1)
        assert mn_for(20, 1, 2) == (3, 5)


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig6(ks=(4, 8, 12))

    def test_flat_tree_beats_fat_tree_in_pods(self, result):
        flat = result.get("flat-tree")
        fat = result.get("fat-tree")
        for k in (8, 12):
            assert flat.points[k] < fat.points[k]

    def test_random_graph_worst_in_pods(self, result):
        rnd = result.get("random graph")
        for series in result.series:
            if series.label == "random graph":
                continue
            for k, value in series.points.items():
                assert value < rnd.points[k]

    def test_flat_tree_competitive_with_two_stage(self, result):
        """Paper: flat-tree outperforms two-stage; randomness makes this
        a near-tie at tiny k, so assert within 5% and strictly ordered
        on aggregate."""
        flat = result.get("flat-tree")
        two = result.get("two-stage random graph")
        for k in flat.points:
            assert flat.points[k] <= two.points[k] * 1.05

    def test_flat_vs_two_stage_multiseed(self):
        """The near-tie claim, resolved over seeds: flat-tree's in-Pod APL
        is within noise (sample std) of two-stage's, and below fat-tree's."""
        runs = [run_fig6(ks=(8,), seed=seed) for seed in (0, 1, 2)]

        def at_k8(label):
            return [run.get(label).points[8] for run in runs]

        flat = at_k8("flat-tree")
        two = at_k8("two-stage random graph")
        fat = at_k8("fat-tree")
        margin = stdev(flat) + stdev(two) + 0.05
        assert abs(mean(flat) - mean(two)) <= margin
        assert mean(flat) < mean(fat)


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig7(ks=(4, 6, 8))

    def test_flat_tree_at_least_fat_tree(self, result):
        """Strict win at k=8; at k=6 a random hotspot draw can land on a
        weak aggregation switch and tie fat-tree, so only non-strict."""
        for place in ("locality", "no locality"):
            flat = result.get(f"flat-tree {place}")
            fat = result.get(f"fat-tree {place}")
            assert flat.points[8] > fat.points[8]
            assert flat.points[6] >= fat.points[6] - 1e-12

    def test_flat_tree_factor_toward_1_5x(self, result):
        """Paper: 1.5x fat-tree; allow 1.2x+ at these tiny scales."""
        flat = result.get("flat-tree locality")
        fat = result.get("fat-tree locality")
        assert flat.points[8] >= 1.2 * fat.points[8]

    def test_flat_tree_close_to_random(self, result):
        flat = result.get("flat-tree locality").points[8]
        rnd = result.get("random graph locality").points[8]
        assert flat >= 0.8 * rnd

    def test_throughput_grows_with_k(self, result):
        for label in ("fat-tree locality", "flat-tree locality"):
            series = result.get(label)
            assert series.points[4] < series.points[8]

    def test_locality_insensitive(self, result):
        """None of the topologies is sensitive to locality (paper §3.3)."""
        for topo in ("fat-tree", "flat-tree", "random graph"):
            a = result.get(f"{topo} locality").points[8]
            b = result.get(f"{topo} no locality").points[8]
            assert a == pytest.approx(b, rel=0.35)

    def test_incast_symmetry(self):
        net = flat_tree_network(6, Mode.GLOBAL_RANDOM)
        assert incast_equals_broadcast(net, 6)


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig8(ks=(4, 6))

    def test_flat_tree_beats_fat_tree(self, result):
        for place in ("locality", "weak locality"):
            flat = result.get(f"flat-tree {place}")
            fat = result.get(f"fat-tree {place}")
            for k in flat.points:
                assert flat.points[k] >= fat.points[k]

    def test_flat_tree_at_least_two_stage_small_k(self, result):
        """Paper: flat-tree outperforms two-stage for k <= 14."""
        flat = result.get("flat-tree locality")
        two = result.get("two-stage random graph locality")
        for k in flat.points:
            assert flat.points[k] >= two.points[k] * 0.98

    def test_fat_tree_collapses_under_weak_locality_at_k8(self):
        """Paper: fat-tree's throughput drops under weak locality.

        At k <= 6 clusters barely fit in a Pod, so fragmentation can
        accidentally help; the claim stabilizes from k = 8 on.  Solve
        the two fat-tree LPs directly (cheap) instead of the full sweep.
        """
        import random

        from repro.experiments.common import baseline_networks, throughput_of
        from repro.experiments.fig8_alltoall import all_to_all_workload
        from repro.topology.clos import fat_tree_params

        params = fat_tree_params(8)
        fat = baseline_networks(8, seed=0)["fat-tree"]
        strong = throughput_of(
            fat, all_to_all_workload(params, "locality", random.Random(0))
        )
        weak = throughput_of(
            fat,
            all_to_all_workload(params, "weak locality", random.Random(0)),
        )
        assert weak < strong


class TestHybrid:
    def test_zone_isolation_at_one_point(self):
        """§3.4 at k=6, 50/50: combined ~ min(zone solves)."""
        design = FlatTreeDesign.for_fat_tree(6)
        row = hybrid_point(design, 0.5, seed=0)
        assert row.isolated
        assert row.combined == pytest.approx(
            min(row.global_zone, row.local_zone), rel=0.02
        )

    def test_zone_throughputs_positive(self):
        design = FlatTreeDesign.for_fat_tree(6)
        row = hybrid_point(design, 0.5, seed=1)
        assert row.global_zone > 0
        assert row.local_zone > 0
