"""Tooling bench: the span-tree diff stays inner-loop fast.

``perfreport diff`` must stay cheap even on traces far larger than a
figure run records: a span-tree diff over two synthetic ~10k-node
profiles plus the subtraction of their folded stacks must finish
inside :data:`BUDGET_S`.  The budget is deliberately loose so only an
algorithmic blow-up (quadratic alignment) can trip it, not CI jitter.
"""

from __future__ import annotations

import time

from conftest import show

from repro.experiments.common import ExperimentResult
from repro.obs import diffprof
from repro.obs.perf import Profile

#: Hard runtime ceiling for the diff and the subtraction, in seconds.
BUDGET_S = 10.0

#: Span-tree fan-out: ROOTS x CHILDREN x LEAVES nodes per profile.
ROOTS, CHILDREN, LEAVES = 10, 33, 30


def synthetic_profile(scale: float) -> Profile:
    events = []
    span_id = 0
    for r in range(ROOTS):
        span_id += 1
        root_id = span_id
        root_path = f"root{r}"
        for c in range(CHILDREN):
            span_id += 1
            child_id = span_id
            child_path = f"{root_path}/phase{c}"
            for leaf in range(LEAVES):
                span_id += 1
                events.append({
                    "ts": 1.0, "kind": "span", "name": f"leaf{leaf}",
                    "path": f"{child_path}/leaf{leaf}", "depth": 2,
                    "span_id": span_id, "parent_id": child_id,
                    "duration_s": 0.001 * scale * (leaf + 1),
                })
            events.append({
                "ts": 1.0, "kind": "span", "name": f"phase{c}",
                "path": child_path, "depth": 1, "span_id": child_id,
                "parent_id": root_id,
                "duration_s": 0.001 * scale * LEAVES * (LEAVES + 1) / 2,
            })
        events.append({
            "ts": 1.0, "kind": "span", "name": f"root{r}",
            "path": root_path, "depth": 0, "span_id": root_id,
            "parent_id": None, "duration_s": 10.0 * scale,
        })
    return Profile.from_events(events)


def run_differential_plane() -> ExperimentResult:
    begin = time.perf_counter()
    base = synthetic_profile(1.0)
    new = synthetic_profile(1.3)
    diff = diffprof.diff_profiles(base, new)
    folded = diffprof.subtract_folded(
        diffprof.parse_folded(base.folded()),
        diffprof.parse_folded(new.folded()))
    diff_wall = time.perf_counter() - begin

    result = ExperimentResult(
        experiment="tooling: span-tree diff runtime",
        x_label="aligned paths",
        y_label="wall-clock (s)",
    )
    result.new_series("span-tree diff").add(len(diff.deltas), diff_wall)
    result.notes.append(
        f"diff: {len(diff.deltas)} paths, {len(folded)} folded stacks "
        f"in {diff_wall:.2f}s (budget {BUDGET_S:.0f}s)")
    return result


def test_bench_diffprof_runtime(once):
    result = once(run_differential_plane)
    show(result)
    (paths, diff_wall), = result.get("span-tree diff").points.items()
    assert paths > 10_000  # the diff really aligned both big trees
    assert diff_wall <= BUDGET_S
