"""Span-tree profiling: where the wall-clock of a run actually went.

:class:`Profile` reconstructs the span call tree of one telemetry
session from the JSONL events the tracer emitted (``kind == "span"``)
and answers the questions a perf PR is judged on:

* **per-name accounting** — cumulative and *self* time (cumulative
  minus direct children) plus call counts, via :meth:`Profile.
  aggregate`;
* **the critical path** — the chain of heaviest spans from the slowest
  root down to a leaf, via :meth:`Profile.critical_path`;
* **a folded-stack export** — ``parent;child;leaf <microseconds>``
  lines consumable by ``flamegraph.pl`` and speedscope, via
  :meth:`Profile.folded`;
* **memory attribution** — when the trace was recorded under
  ``REPRO_TRACEMALLOC`` (see :func:`repro.obs.enable`), the per-name
  peak of the spans' ``mem_peak_kb`` deltas.

Reconstruction links spans by the ``span_id``/``parent_id`` trace
context every span carries (exact even when sibling spans share a
name); a span without a positive integer ``span_id`` is rejected.

The CLI front end is ``python -m tools.perfreport profile RUN.jsonl``
(and ``... flamegraph RUN.jsonl``); the format is documented in
``docs/performance.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

from repro.errors import ReproError

#: Event keys that are trace plumbing rather than call-site attributes.
_CORE_FIELDS = frozenset({
    "ts", "name", "kind", "duration_s", "path", "depth",
    "span_id", "parent_id", "mem_peak_kb",
})


@dataclass
class SpanNode:
    """One reconstructed span occurrence in the call tree."""

    name: str
    span_id: int
    parent_id: Optional[int]
    path: str
    depth: int
    duration_s: float
    mem_peak_kb: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def self_s(self) -> float:
        """Duration not covered by direct children (clamped at 0)."""
        covered = sum(child.duration_s for child in self.children)
        return max(0.0, self.duration_s - covered)


@dataclass
class NameStats:
    """Aggregated accounting for every span sharing one name."""

    name: str
    calls: int
    cum_s: float
    self_s: float
    mem_peak_kb: Optional[float]


class Profile:
    """A reconstructed span tree plus the derived perf reports."""

    def __init__(self, roots: List[SpanNode],
                 nodes: Dict[int, SpanNode]) -> None:
        self.roots = roots
        self.nodes = nodes

    # -- construction -------------------------------------------------

    @classmethod
    def from_events(cls, events: Iterable[Mapping[str, object]]) -> "Profile":
        """Build a profile from already-decoded telemetry events.

        Non-span events are ignored, so the full JSONL stream of a
        ``--telemetry`` run can be fed in unfiltered.
        """
        nodes = [cls._node_of(e) for e in events if e.get("kind") == "span"]
        by_id = {node.span_id: node for node in nodes}
        if len(by_id) != len(nodes):
            raise ReproError("duplicate span_id in trace — ids must be "
                             "unique within one telemetry session")
        roots: List[SpanNode] = []
        for node in nodes:
            parent = (by_id.get(node.parent_id)
                      if node.parent_id is not None else None)
            if parent is None:
                roots.append(node)
            else:
                parent.children.append(node)
        return cls(roots, by_id)

    @classmethod
    def from_jsonl(cls, path: str) -> "Profile":
        """Load a profile from a ``--telemetry=PATH`` JSONL file."""
        events: List[Mapping[str, object]] = []
        with open(path, "r", encoding="utf-8") as stream:
            for lineno, line in enumerate(stream, start=1):
                if not line.strip():
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ReproError(
                        f"{path}:{lineno}: not valid JSONL: {exc}") from exc
                if isinstance(event, dict):
                    events.append(event)
        return cls.from_events(events)

    @staticmethod
    def _node_of(event: Mapping[str, object]) -> SpanNode:
        name = event.get("name")
        duration = event.get("duration_s")
        if not isinstance(name, str) or not isinstance(duration, (int, float)):
            raise ReproError(f"malformed span event: {dict(event)!r}")
        span_id = event.get("span_id")
        if (not isinstance(span_id, int) or isinstance(span_id, bool)
                or span_id < 1):
            raise ReproError(f"span {name!r} has no positive integer "
                             f"span_id: {dict(event)!r}")
        parent_id = event.get("parent_id")
        depth = event.get("depth")
        mem = event.get("mem_peak_kb")
        path = event.get("path")
        return SpanNode(
            name=name,
            span_id=span_id,
            parent_id=parent_id if isinstance(parent_id, int)
            and not isinstance(parent_id, bool) else None,
            path=path if isinstance(path, str) else name,
            depth=depth if isinstance(depth, int)
            and not isinstance(depth, bool) else 0,
            duration_s=float(duration),
            mem_peak_kb=float(mem) if isinstance(mem, (int, float))
            and not isinstance(mem, bool) else None,
            attrs={k: v for k, v in event.items() if k not in _CORE_FIELDS},
        )

    # -- reports ------------------------------------------------------

    @property
    def total_s(self) -> float:
        """Wall-clock covered by the root spans."""
        return sum(root.duration_s for root in self.roots)

    def walk(self) -> Iterable[SpanNode]:
        """Every node, parents before children."""
        stack = list(reversed(self.roots))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def aggregate(self) -> List[NameStats]:
        """Per-name calls / cumulative / self time, heaviest self first.

        Cumulative time is the plain sum of span durations per name, so
        a recursive span nested under itself counts its subtree twice —
        self time never double-counts and is the column to optimize by.
        """
        stats: Dict[str, NameStats] = {}
        for node in self.walk():
            entry = stats.get(node.name)
            if entry is None:
                stats[node.name] = NameStats(
                    name=node.name, calls=1, cum_s=node.duration_s,
                    self_s=node.self_s, mem_peak_kb=node.mem_peak_kb)
                continue
            entry.calls += 1
            entry.cum_s += node.duration_s
            entry.self_s += node.self_s
            if node.mem_peak_kb is not None:
                entry.mem_peak_kb = max(entry.mem_peak_kb or 0.0,
                                        node.mem_peak_kb)
        return sorted(stats.values(),
                      key=lambda s: (-s.self_s, s.name))

    def critical_path(self) -> List[SpanNode]:
        """Heaviest root, then the heaviest child at every level."""
        if not self.roots:
            return []
        node = max(self.roots, key=lambda n: (n.duration_s, -n.span_id))
        chain = [node]
        while node.children:
            node = max(node.children, key=lambda n: (n.duration_s, -n.span_id))
            chain.append(node)
        return chain

    def folded(self) -> List[str]:
        """Folded stacks: ``a;b;c <self-microseconds>`` per unique path.

        Weights are integer self-time microseconds, the format
        ``flamegraph.pl`` ingests directly and speedscope imports as
        "folded stacks"; identical paths (repeated calls) are summed.
        """
        weights: Dict[str, int] = {}
        for node in self.walk():
            stack = node.path.replace(";", ",").split("/")
            key = ";".join(stack)
            weights[key] = weights.get(key, 0) + int(round(node.self_s * 1e6))
        return [f"{key} {weight}" for key, weight in sorted(weights.items())]

    def render_table(self, top: int = 20) -> str:
        """Aligned text report: totals, hot names, the critical path."""
        stats = self.aggregate()
        lines = [
            f"{len(self.nodes)} spans, {len(self.roots)} roots, "
            f"total {self.total_s:.6f}s"
        ]
        has_mem = any(s.mem_peak_kb is not None for s in stats)
        header = (f"{'name':<28} {'calls':>6} {'cum_s':>10} {'self_s':>10} "
                  f"{'self%':>6}")
        if has_mem:
            header += f" {'peak_kb':>9}"
        lines += [header, "-" * len(header)]
        total = self.total_s or 1.0
        for entry in stats[:top]:
            row = (f"{entry.name:<28} {entry.calls:>6} "
                   f"{entry.cum_s:>10.6f} {entry.self_s:>10.6f} "
                   f"{100 * entry.self_s / total:>5.1f}%")
            if has_mem:
                mem = (f"{entry.mem_peak_kb:>9.1f}"
                       if entry.mem_peak_kb is not None else f"{'-':>9}")
                row += f" {mem}"
            lines.append(row)
        chain = self.critical_path()
        if chain:
            lines.append("")
            lines.append("critical path:")
            for node in chain:
                lines.append(
                    f"  {'  ' * node.depth}{node.name}  "
                    f"cum {node.duration_s:.6f}s  self {node.self_s:.6f}s")
        return "\n".join(lines)
