"""Bench: Figure 8 — all-to-all throughput in 20-member clusters.

Shape: flat-tree tracks the local-random optimum and beats the two-stage
random graph at small k (the paper's k <= 14 regime); fat-tree is the
weakest and placement-sensitive.

Default sweep is k = 4, 6, 8 (about 15 s, most of it the eight k = 8 LPs);
``REPRO_KS`` extends the sweep, ``REPRO_SOLVER=approx`` trades exactness
for reach.
"""

from __future__ import annotations

from conftest import show

from repro.experiments.common import ks_from_env
from repro.experiments.fig8_alltoall import run_fig8

DEFAULT_BENCH_KS = (4, 6, 8)


def test_bench_fig8(once):
    result = once(run_fig8, ks=ks_from_env(DEFAULT_BENCH_KS))
    show(result)
    flat = result.get("flat-tree locality")
    fat = result.get("fat-tree locality")
    two = result.get("two-stage random graph locality")
    for k in flat.points:
        assert flat.points[k] >= fat.points[k]
        if k <= 14:
            assert flat.points[k] >= two.points[k] * 0.98
