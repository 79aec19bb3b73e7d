"""FT007 — determinism taint from nondeterminism sources to replay sinks.

The repo's replay contracts promise byte-identical artifacts: the
remediation ledger, health reports and trace-diff reports must come
out the same when a trace is replayed.  Trace time (the ``t``
threaded through the event stream) is
the sanctioned clock; wall clocks, unseeded RNGs and id()-keyed
iteration are not.  A per-file rule can catch ``time.time()`` inside
``ledger.py`` — but not three frames above it.

The analysis works *backwards* from the sinks:

1. **Sinks** — every function in the replay-critical modules
   (``repro.selfheal.ledger``, ``repro.health.report``,
   ``repro.obs.diffprof``),
   every method of a class named ``RemediationLedger``/``HealthReport``,
   and telemetry ``emit`` methods under ``repro.obs``.  For each sink *method* name
   the pseudo-node ``<unknown>.<name>`` is seeded too, so a sink
   reached through unresolvable dynamic dispatch still counts —
   unknown callees widen taint, they never drop it.
2. **Feeders** — reverse BFS over direct + widened + unknown edges:
   every function that can transitively call a sink.  The walk is cut
   at the trace-clock module (``repro.obs.trace``): routing time
   through ``obs.event(..., t=...)`` is exactly the sanctioned path,
   so calling the bus must not mark a function replay-critical.
3. **Sources** — inside each feeder, calls that resolve to wall
   clocks (``time.time``/``monotonic``/``perf_counter`` and datetime
   friends), the unseeded module-level ``random`` API, entropy APIs
   (``os.urandom``, ``uuid.uuid4``, ``secrets``), bare ``id()``, and
   iteration over ``set`` expressions (unordered across runs).

Each finding is reported **at the source call site** — that is the
line to fix or to suppress with a justification — and the message
carries the source→sink call path so the three-frames-away case is
diagnosable from the report alone.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..callgraph import UNKNOWN_PREFIX
from ..engine import Finding, Project, Rule
from . import register

#: Modules whose artifacts must replay byte-identically.
_SINK_MODULES = frozenset({
    "repro.selfheal.ledger",
    "repro.health.report",
    "repro.obs.diffprof",
})

#: Replay-critical classes recognised anywhere (fixtures included).
_SINK_CLASSES = frozenset({"RemediationLedger", "HealthReport"})

#: Sanctioned nondeterminism: the trace clock owns timestamping, so
#: the reverse walk stops here and its internals are never scanned.
_EXEMPT_MODULES = frozenset({"repro.obs.trace"})

_WALL_CLOCKS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

_UNSEEDED_RANDOM = frozenset({
    "random.random", "random.randint", "random.randrange",
    "random.choice", "random.choices", "random.shuffle",
    "random.sample", "random.uniform", "random.gauss",
    "random.expovariate", "random.getrandbits", "random.betavariate",
})

_ENTROPY = frozenset({
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbits", "secrets.randbelow", "secrets.choice",
})


def _in_repro(module: str) -> bool:
    return module == "repro" or module.startswith("repro.")


def _source_label(callee: str) -> Optional[str]:
    """Human label when *callee* is a nondeterminism source, else None."""
    if callee in _WALL_CLOCKS:
        return f"wall clock {callee}()"
    if callee in _UNSEEDED_RANDOM:
        return f"unseeded {callee}()"
    if callee in _ENTROPY:
        return f"entropy source {callee}()"
    if callee == f"{UNKNOWN_PREFIX}.id":
        return "id() (allocation-order dependent)"
    return None


@register
class DeterminismTaintRule(Rule):
    code = "FT007"
    name = "determinism-taint"
    summary = ("wall clocks, unseeded random, entropy, id() and set "
               "iteration must not reach replay-critical sinks (ledger, "
               "health report, telemetry emit, trace-diff reports); "
               "use the trace clock or sort/seed first")

    def finalize(self, project: Project) -> Iterator[Finding]:
        if not any(_in_repro(f.module) for f in project.files):
            return
        symtab = project.symbols()
        graph = project.callgraph()

        sinks = self._sink_functions(symtab)
        if not sinks:
            return
        toward_sink = self._feeders(graph, symtab, sinks)

        seen: Set[Tuple[str, int, str]] = set()
        for qual in sorted(toward_sink):
            fn = symtab.functions.get(qual)
            if fn is None or not _in_repro(fn.module) \
                    or fn.module in _EXEMPT_MODULES:
                continue
            route = self._route(symtab, toward_sink, qual)
            for line, col, label in self._sources_in(graph, fn):
                key = (fn.path, line, label)
                if key in seen:
                    continue
                seen.add(key)
                yield Finding(
                    path=fn.path, line=line, col=col, code=self.code,
                    message=(
                        f"nondeterministic {label} reaches replay-"
                        f"critical sink via {route} — route timestamps "
                        "through the trace clock, seed/sort the data, "
                        "or suppress with a justification"),
                )

    # ------------------------------------------------------------------
    # sink discovery
    # ------------------------------------------------------------------
    def _sink_functions(self, symtab: object) -> Dict[str, str]:
        """Sink qualname -> short label (includes pseudo-nodes)."""
        sinks: Dict[str, str] = {}
        for qual, fn in symtab.functions.items():
            if fn.module in _SINK_MODULES and not fn.is_module_body:
                sinks[qual] = qual
            elif fn.cls is not None:
                cls_name = fn.cls.rsplit(".", 1)[-1]
                if cls_name in _SINK_CLASSES:
                    sinks[qual] = qual
                elif fn.name == "emit" \
                        and fn.module.startswith("repro.obs"):
                    sinks[qual] = qual
        # Dynamic dispatch must widen into sinks, never drop them: for
        # every sink *method* name, the matching unknown pseudo-node is
        # a sink too.
        for qual in list(sinks):
            fn = symtab.functions[qual]
            if fn.cls is not None:
                pseudo = f"{UNKNOWN_PREFIX}.{fn.name}"
                sinks.setdefault(pseudo, qual)
        return sinks

    # ------------------------------------------------------------------
    # reverse reachability
    # ------------------------------------------------------------------
    def _feeders(self, graph: object, symtab: object,
                 sinks: Dict[str, str]) -> Dict[str, Optional[str]]:
        """caller -> next node toward a sink (sinks map to None)."""
        toward: Dict[str, Optional[str]] = {q: None for q in sinks}
        queue: List[str] = sorted(sinks)
        while queue:
            node = queue.pop(0)
            fn = symtab.functions.get(node)
            if fn is not None and fn.module in _EXEMPT_MODULES:
                continue        # the trace clock absorbs, not forwards
            for edge in graph.into.get(node, ()):
                if edge.kind not in ("direct", "widened", "unknown"):
                    continue
                if edge.caller in toward:
                    continue
                toward[edge.caller] = node
                queue.append(edge.caller)
        return toward

    def _route(self, symtab: object,
               toward_sink: Dict[str, Optional[str]], qual: str) -> str:
        chain = [qual]
        cursor = toward_sink.get(qual)
        while cursor is not None and cursor not in chain:
            chain.append(cursor)
            cursor = toward_sink.get(cursor)
        return " -> ".join(chain)

    # ------------------------------------------------------------------
    # source scanning
    # ------------------------------------------------------------------
    def _sources_in(self, graph: object, fn: object,
                    ) -> Iterator[Tuple[int, int, str]]:
        for edge in graph.out.get(fn.qualname, ()):
            label = _source_label(edge.callee)
            if label is not None:
                yield edge.line, 1, label
        yield from self._set_iterations(fn)

    def _set_iterations(self, fn: object) -> Iterator[Tuple[int, int, str]]:
        for node in self._own_statements(fn):
            for sub in ast.walk(node):
                iters: List[ast.AST] = []
                if isinstance(sub, (ast.For, ast.AsyncFor)):
                    iters.append(sub.iter)
                elif isinstance(sub, (ast.ListComp, ast.SetComp,
                                      ast.DictComp, ast.GeneratorExp)):
                    iters.extend(gen.iter for gen in sub.generators)
                for it in iters:
                    if self._is_set_expr(it):
                        yield (getattr(it, "lineno", fn.lineno),
                               getattr(it, "col_offset", 0) + 1,
                               "iteration over an unordered set")

    def _own_statements(self, fn: object) -> List[ast.AST]:
        body = list(getattr(fn.node, "body", ()))
        if fn.is_module_body:
            return [n for n in body
                    if not isinstance(n, (ast.FunctionDef,
                                          ast.AsyncFunctionDef,
                                          ast.ClassDef))]
        return body

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("set", "frozenset"):
            return True
        return False
