"""Differential profiling: which span moved between two traces.

:func:`diff_profiles` aligns two :class:`repro.obs.perf.Profile` trees
from telemetry JSONL traces by span *path*, so
`cli/convert/mcf.exact` in the base run lines up with the same phase
in the new run even when siblings share a name.  Each aligned path
carries cumulative / self wall-time and ``mem_peak_kb`` deltas and is
classified ``grown`` / ``shrunk`` / ``steady`` / ``new`` / ``gone`` /
``below-floor``; the two critical paths are compared level by level
for the divergence summary.

**Differential flamegraphs** ride along: :func:`subtract_folded` takes
two folded-stack exports (``a;b;c <usec>`` lines, as produced by
``Profile.folded``) and emits the two-column ``stack base_usec
new_usec`` format that Brendan Gregg's ``difffolded.pl`` produces and
``flamegraph.pl`` renders red/blue — so ``perfreport diff --folded
out.folded`` shows where an optimization *moved* time.

Classification is noise-tolerant (:data:`DEFAULT_TOLERANCE`,
:data:`DEFAULT_MIN_RUNTIME_S`): a path must grow beyond
``1 + tolerance`` (default 25%) and sit above the runtime floor
(default 5 ms) on at least one side to count.  A diff with at least
one ``grown`` path carries ``exit_code`` 1 — the CLI (``python -m
tools.perfreport diff BASE.jsonl NEW.jsonl``) forwards it.

This module is a replay-critical sink for flatlint FT007: its reports
must be byte-identical across replays, so no wall clock or RNG may
reach it.  The format is documented in ``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ReproError
from repro.obs.perf import Profile
from repro.obs.trace import event

__all__ = [
    "DEFAULT_MIN_RUNTIME_S",
    "DEFAULT_TOLERANCE",
    "PathDelta",
    "ProfileDiff",
    "diff_profiles",
    "emit_diff_event",
    "parse_folded",
    "render_json",
    "render_text",
    "subtract_folded",
]

#: Relative change treated as noise: a path counts as grown only past
#: ``1 + DEFAULT_TOLERANCE`` of its base time.
DEFAULT_TOLERANCE = 0.25

#: Seconds: paths under this on both sides are timer jitter, never
#: judged.
DEFAULT_MIN_RUNTIME_S = 0.005


@dataclass
class PathDelta:
    """One aligned path's judgement across the two recordings."""

    path: str
    name: str
    status: str  # grown | shrunk | steady | new | gone | below-floor
    base_cum_s: float
    new_cum_s: float
    base_self_s: float
    new_self_s: float
    base_calls: int
    new_calls: int
    base_mem_kb: Optional[float] = None
    new_mem_kb: Optional[float] = None

    @property
    def cum_delta_s(self) -> float:
        return self.new_cum_s - self.base_cum_s

    @property
    def self_delta_s(self) -> float:
        return self.new_self_s - self.base_self_s

    @property
    def ratio(self) -> Optional[float]:
        if self.base_cum_s > 0:
            return self.new_cum_s / self.base_cum_s
        return None

    @property
    def mem_delta_kb(self) -> Optional[float]:
        if self.base_mem_kb is None and self.new_mem_kb is None:
            return None
        return (self.new_mem_kb or 0.0) - (self.base_mem_kb or 0.0)


@dataclass
class ProfileDiff:
    """The full attribution of ``diff BASE NEW``."""

    base_label: str
    new_label: str
    tolerance: float
    min_runtime_s: float
    base_total_s: float
    new_total_s: float
    deltas: List[PathDelta] = field(default_factory=list)
    #: (name, cum_s) along each recording's critical path.
    critical_base: List[Tuple[str, float]] = field(default_factory=list)
    critical_new: List[Tuple[str, float]] = field(default_factory=list)

    @property
    def total_delta_s(self) -> float:
        return self.new_total_s - self.base_total_s

    @property
    def grown(self) -> List[PathDelta]:
        return [d for d in self.deltas if d.status == "grown"]

    @property
    def shrunk(self) -> List[PathDelta]:
        return [d for d in self.deltas if d.status == "shrunk"]

    @property
    def exit_code(self) -> int:
        return 1 if self.grown else 0

    def critical_divergence(self) -> Optional[int]:
        """First level where the two critical paths name different spans.

        ``None`` when either path is empty or they agree level by level
        up to the shorter one's depth.
        """
        if not self.critical_base or not self.critical_new:
            return None
        for depth, (base, new) in enumerate(
                zip(self.critical_base, self.critical_new)):
            if base[0] != new[0]:
                return depth
        return None


# ----------------------------------------------------------------------
# alignment
# ----------------------------------------------------------------------

@dataclass
class _PathStats:
    """One side's accounting for every span occurrence sharing a path."""

    path: str
    name: str
    calls: int = 0
    cum_s: float = 0.0
    self_s: float = 0.0
    mem_kb: Optional[float] = None


def _collapse_profile(profile: Profile) -> Dict[str, _PathStats]:
    stats: Dict[str, _PathStats] = {}
    for node in profile.walk():
        entry = stats.setdefault(node.path,
                                 _PathStats(path=node.path, name=node.name))
        entry.calls += 1
        entry.cum_s += node.duration_s
        entry.self_s += node.self_s
        if node.mem_peak_kb is not None:
            entry.mem_kb = max(entry.mem_kb or 0.0, node.mem_peak_kb)
    return stats


def _judge(base: Optional[_PathStats], new: Optional[_PathStats],
           tolerance: float, min_runtime_s: float) -> PathDelta:
    either = new if new is not None else base
    if either is None:  # pragma: no cover - diff_profiles never does this
        raise ReproError("internal: aligned a path present on neither side")
    path = either.path
    name = either.name
    base_cum = base.cum_s if base is not None else 0.0
    new_cum = new.cum_s if new is not None else 0.0
    if base is None:
        status = "below-floor" if new_cum < min_runtime_s else "new"
    elif new is None:
        status = "below-floor" if base_cum < min_runtime_s else "gone"
    elif max(base_cum, new_cum) < min_runtime_s:
        status = "below-floor"
    elif new_cum > base_cum * (1 + tolerance):
        status = "grown"
    elif new_cum < base_cum * (1 - tolerance):
        status = "shrunk"
    else:
        status = "steady"
    return PathDelta(
        path=path, name=name, status=status,
        base_cum_s=base_cum, new_cum_s=new_cum,
        base_self_s=base.self_s if base is not None else 0.0,
        new_self_s=new.self_s if new is not None else 0.0,
        base_calls=base.calls if base is not None else 0,
        new_calls=new.calls if new is not None else 0,
        base_mem_kb=base.mem_kb if base is not None else None,
        new_mem_kb=new.mem_kb if new is not None else None,
    )


def diff_profiles(
    base: Profile,
    new: Profile,
    tolerance: float = DEFAULT_TOLERANCE,
    min_runtime_s: float = DEFAULT_MIN_RUNTIME_S,
    base_label: str = "base",
    new_label: str = "new",
) -> ProfileDiff:
    """Span-tree diff of two reconstructed telemetry profiles."""
    base_stats = _collapse_profile(base)
    new_stats = _collapse_profile(new)
    deltas = [
        _judge(base_stats.get(path), new_stats.get(path), tolerance,
               min_runtime_s)
        for path in sorted(set(base_stats) | set(new_stats))
    ]
    deltas.sort(key=lambda d: (-abs(d.cum_delta_s), d.path))
    return ProfileDiff(
        base_label=base_label, new_label=new_label,
        tolerance=tolerance, min_runtime_s=min_runtime_s,
        base_total_s=base.total_s, new_total_s=new.total_s,
        deltas=deltas,
        critical_base=[(n.name, n.duration_s) for n in base.critical_path()],
        critical_new=[(n.name, n.duration_s) for n in new.critical_path()],
    )


# ----------------------------------------------------------------------
# differential flamegraphs (folded-stack subtraction)
# ----------------------------------------------------------------------

def parse_folded(lines: Iterable[str]) -> Dict[str, int]:
    """Decode ``stack <usec>`` lines; identical stacks are summed."""
    weights: Dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        stack, _, weight = line.rpartition(" ")
        if not stack or not weight.lstrip("-").isdigit():
            raise ReproError(
                f"folded line {lineno} is not 'frames <usec>': {line!r}")
        weights[stack] = weights.get(stack, 0) + int(weight)
    return weights


def subtract_folded(base: Mapping[str, int],
                    new: Mapping[str, int]) -> List[str]:
    """Two-column differential folded stacks: ``stack base_us new_us``.

    The output is the format ``difffolded.pl`` produces, which
    ``flamegraph.pl`` renders as a red/blue differential flame graph
    (red = grew, blue = shrank); stacks absent on one side carry a 0
    on that side.  Lines are sorted by stack for determinism.
    """
    return [
        f"{stack} {base.get(stack, 0)} {new.get(stack, 0)}"
        for stack in sorted(set(base) | set(new))
    ]


# ----------------------------------------------------------------------
# rendering + wire event
# ----------------------------------------------------------------------

_STATUS_ORDER = {"grown": 0, "shrunk": 1, "new": 2, "gone": 3,
                 "steady": 4, "below-floor": 5}


def render_text(diff: ProfileDiff, top: int = 30) -> str:
    """Aligned text attribution, biggest movers first."""
    total_ratio = (f", {diff.new_total_s / diff.base_total_s:.2f}x"
                   if diff.base_total_s > 0 else "")
    lines = [
        f"perfreport diff: {diff.base_label} -> "
        f"{diff.new_label} (tolerance {diff.tolerance:.0%}, floor "
        f"{diff.min_runtime_s * 1e3:g} ms)",
        f"total {diff.base_total_s:.4f}s -> {diff.new_total_s:.4f}s "
        f"({diff.total_delta_s:+.4f}s{total_ratio})",
    ]
    has_mem = any(d.mem_delta_kb is not None for d in diff.deltas)
    header = (f"{'status':<12} {'base_s':>10} {'new_s':>10} {'delta_s':>10} "
              f"{'ratio':>7}")
    if has_mem:
        header += f" {'mem_kb':>9}"
    header += "  path"
    lines += [header, "-" * len(header)]
    ordered = sorted(
        diff.deltas,
        key=lambda d: (_STATUS_ORDER[d.status], -abs(d.cum_delta_s), d.path))
    for delta in ordered[:top]:
        ratio = f"{delta.ratio:.2f}x" if delta.ratio is not None else "-"
        row = (f"{delta.status:<12} {delta.base_cum_s:>10.4f} "
               f"{delta.new_cum_s:>10.4f} {delta.cum_delta_s:>+10.4f} "
               f"{ratio:>7}")
        if has_mem:
            mem = (f"{delta.mem_delta_kb:>+9.1f}"
                   if delta.mem_delta_kb is not None else f"{'-':>9}")
            row += f" {mem}"
        row += f"  {delta.path}"
        lines.append(row)
    if len(diff.deltas) > top:
        lines.append(f"... {len(diff.deltas) - top} more path(s) "
                     f"(raise --top)")
    if diff.critical_base or diff.critical_new:
        lines.append("")
        base_chain = " > ".join(name for name, _ in diff.critical_base)
        new_chain = " > ".join(name for name, _ in diff.critical_new)
        base_leaf = diff.critical_base[-1][1] if diff.critical_base else 0.0
        new_leaf = diff.critical_new[-1][1] if diff.critical_new else 0.0
        lines.append(f"critical path (base): {base_chain}  "
                     f"leaf {base_leaf:.4f}s")
        lines.append(f"critical path (new):  {new_chain}  "
                     f"leaf {new_leaf:.4f}s")
        divergence = diff.critical_divergence()
        if divergence is not None:
            base_name = diff.critical_base[divergence][0]
            new_name = diff.critical_new[divergence][0]
            lines.append(
                f"critical paths diverge at depth {divergence}: "
                f"base {base_name!r} vs new {new_name!r}")
    lines.append(
        f"{len(diff.grown)} grown, {len(diff.shrunk)} shrunk across "
        f"{len(diff.deltas)} aligned path(s)")
    return "\n".join(lines)


def render_json(diff: ProfileDiff) -> Dict[str, object]:
    """JSON-ready attribution for machine consumers (CI annotations)."""
    return {
        "base": diff.base_label,
        "new": diff.new_label,
        "tolerance": diff.tolerance,
        "min_runtime_s": diff.min_runtime_s,
        "base_total_s": diff.base_total_s,
        "new_total_s": diff.new_total_s,
        "total_delta_s": diff.total_delta_s,
        "grown": len(diff.grown),
        "shrunk": len(diff.shrunk),
        "critical_base": [
            {"name": name, "cum_s": cum} for name, cum in diff.critical_base],
        "critical_new": [
            {"name": name, "cum_s": cum} for name, cum in diff.critical_new],
        "deltas": [
            {
                "path": d.path,
                "name": d.name,
                "status": d.status,
                "base_cum_s": d.base_cum_s,
                "new_cum_s": d.new_cum_s,
                "delta_s": d.cum_delta_s,
                "base_self_s": d.base_self_s,
                "new_self_s": d.new_self_s,
                "self_delta_s": d.self_delta_s,
                "ratio": d.ratio,
                "base_calls": d.base_calls,
                "new_calls": d.new_calls,
                "mem_delta_kb": d.mem_delta_kb,
            }
            for d in diff.deltas
        ],
    }


def emit_diff_event(diff: ProfileDiff) -> None:
    """Publish the registered ``perf.diff_session`` wire event."""
    event("perf.diff_session", base=diff.base_label, new=diff.new_label,
          grown=len(diff.grown), shrunk=len(diff.shrunk))
