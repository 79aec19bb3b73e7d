"""Shared experiment machinery: results, topology factory, solver dispatch.

Every experiment module produces an :class:`ExperimentResult` — labelled
series over the fat-tree parameter k (or another x-axis) — which renders
to an aligned text table, the library's equivalent of the paper's
figures.  Seeds are explicit everywhere so every number in
EXPERIMENTS.md is reproducible bit-for-bit.
"""

from __future__ import annotations

import os
import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.conversion import Mode, convert
from repro.core.design import FlatTreeDesign
from repro.core.flattree import FlatTree
from repro.errors import ReproError
from repro.mcf.approx import solve_concurrent_approx
from repro.mcf.commodities import FlowProblem, build_flow_problem
from repro.mcf.exact import solve_concurrent_exact
from repro.topology.clos import ClosParams, fat_tree_params
from repro.topology.elements import Network
from repro.topology.fattree import build_fat_tree
from repro.topology.jellyfish import build_jellyfish_like_fat_tree
from repro.topology.twostage import build_two_stage

#: Above this LP size (groups x arcs), throughput solves switch to the
#: Garg-Könemann approximation.  Tuned so default benches stay laptop-fast.
EXACT_LP_VAR_LIMIT = 600_000


@dataclass
class Series:
    """One labelled curve: x -> y."""

    label: str
    points: Dict[float, float] = field(default_factory=dict)

    def add(self, x: float, y: float) -> None:
        self.points[x] = y

    def xs(self) -> List[float]:
        return sorted(self.points)


@dataclass
class ExperimentResult:
    """A figure/table reproduction: several series over one x-axis."""

    experiment: str
    x_label: str
    y_label: str
    series: List[Series] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def get(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"no series {label!r} in {self.experiment}")

    def new_series(self, label: str) -> Series:
        series = Series(label)
        self.series.append(series)
        return series

    def xs(self) -> List[float]:
        out: set = set()
        for s in self.series:
            out.update(s.points)
        return sorted(out)

    def table(self, precision: int = 4) -> str:
        """Render as an aligned text table (x column + one per series)."""
        headers = [self.x_label] + [s.label for s in self.series]
        rows: List[List[str]] = []
        for x in self.xs():
            row = [_fmt(x, 0 if float(x).is_integer() else precision)]
            for s in self.series:
                value = s.points.get(x)
                row.append("-" if value is None else _fmt(value, precision))
            rows.append(row)
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [
            "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for row in rows:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"# {note}")
        return "\n".join(lines)


def _fmt(value: float, precision: int) -> str:
    if precision == 0:
        return str(int(value))
    return f"{value:.{precision}f}"


# ----------------------------------------------------------------------
# k ranges
# ----------------------------------------------------------------------
#: Paper sweep: k = 4, 6, ..., 32.
PAPER_KS: Sequence[int] = tuple(range(4, 34, 2))
#: Laptop-fast defaults for graph metrics (APL experiments).
DEFAULT_APL_KS: Sequence[int] = (4, 6, 8, 10, 12, 14, 16)
#: Laptop-fast defaults for LP-based throughput experiments.
DEFAULT_FLOW_KS: Sequence[int] = (4, 6, 8)


def ks_from_env(default: Sequence[int], env_var: str = "REPRO_KS") -> List[int]:
    """k sweep override: ``REPRO_KS="4,8,12"`` or ``REPRO_MAX_K=16``."""
    explicit = os.environ.get(env_var)
    if explicit:
        return [int(x) for x in explicit.replace(",", " ").split()]
    max_k = os.environ.get("REPRO_MAX_K")
    if max_k:
        return [k for k in PAPER_KS if k <= int(max_k)]
    return list(default)


# ----------------------------------------------------------------------
# topology factory
# ----------------------------------------------------------------------
def flat_tree_network(
    k: int,
    mode: Mode,
    m: Optional[int] = None,
    n: Optional[int] = None,
) -> Network:
    """Flat-tree(k) converted to ``mode`` (paper defaults for m, n)."""
    design = FlatTreeDesign.for_fat_tree(k, m=m, n=n)
    return convert(FlatTree(design), mode)


def baseline_networks(k: int, seed: int = 0) -> Dict[str, Network]:
    """The paper's comparison topologies for fat-tree parameter k."""
    params = fat_tree_params(k)
    return {
        "fat-tree": build_fat_tree(k),
        "random graph": build_jellyfish_like_fat_tree(k, random.Random(seed)),
        "two-stage": build_two_stage(params, random.Random(seed + 1)),
    }


def placement_rng(seed: int, placement: str) -> random.Random:
    """The RNG of one placement's workload, the same in every process.

    The placement name enters the seed through CRC-32: the builtin
    ``hash()`` of a str changes from process to process with
    ``PYTHONHASHSEED``.
    """
    return random.Random(seed + zlib.crc32(placement.encode()) % 1000)


def pod_groups_for(params: ClosParams) -> List[Sequence[int]]:
    """Server ids per Pod (the paper's in-Pod pairs of Figure 6)."""
    return [params.pod_servers(p) for p in range(params.pods)]


# ----------------------------------------------------------------------
# throughput solving
# ----------------------------------------------------------------------
def solve_throughput(
    problem: FlowProblem,
    epsilon: float = 0.08,
    force: Optional[str] = None,
) -> float:
    """Concurrent throughput, dispatching exact LP vs approximation.

    ``force`` may be ``"exact"`` or ``"approx"``; otherwise the exact LP
    is used while its variable count stays under
    :data:`EXACT_LP_VAR_LIMIT`.
    """
    method = force or os.environ.get("REPRO_SOLVER")
    if method not in (None, "exact", "approx"):
        raise ReproError(f"unknown solver {method!r}")
    if method is None:
        size = problem.num_groups * problem.num_arcs
        method = "exact" if size <= EXACT_LP_VAR_LIMIT else "approx"
    if method == "exact":
        return solve_concurrent_exact(problem).throughput
    return solve_concurrent_approx(problem, epsilon=epsilon).throughput


def throughput_of(
    net: Network,
    commodities: Iterable,
    force: Optional[str] = None,
) -> float:
    """Convenience: build the flow problem and solve it."""
    return solve_throughput(build_flow_problem(net, commodities), force=force)
