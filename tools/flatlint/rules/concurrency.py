"""FT006 — concurrency safety across the thread boundary.

``src/`` starts no thread and swaps no sink today; this rule guards
any future one.  A thread (or a sink swapped onto the bus, whose
``emit`` runs on every emitting thread) would share state that
main-thread code also touches — the public aggregator and
remediation engine keep locks for exactly that case.  A per-file
linter cannot see that boundary; this rule walks the whole-program
call graph instead.

The analysis:

1. **Thread entry points** — ``threading.Thread(target=...)``
   arguments, ``run()`` of ``threading.Thread`` subclasses, and the
   ``emit`` method of anything handed to ``obs.install_sink`` (a bus
   tee would run on whatever thread emits; ``repro.obs`` no longer
   has the function, so this entry fires only if one comes back).
2. **Reachability** — functions reachable from an entry form the
   *thread side*; functions reachable from any other ``repro.*``
   function form the *main side*.  A dual-use function sits on both.
3. **Mutations** — writes to instance attributes (through ``self`` or
   any typed receiver), mutating container-method calls
   (``.append``/``.pop``/``.setdefault``/...), and module-global
   writes, each tagged with whether the site sat lexically under
   ``with <lock>:``.  ``__init__``-family methods and module bodies
   are construction, not sharing, and are excluded; ``threading``
   primitives (Events, Locks) guard themselves and are exempt.
4. **Lock-bounded paths** — reachability never traverses a call made
   under ``with <lock>:``, so a lock at *any* frame protects the whole
   cone below it: the aggregator's lock around ``consume`` covers the
   rollups and rule/SLO evaluation it drives, the engine's lock around
   ``poll`` covers the executor→controller→topology chain.  A finding
   therefore means some path from a thread entry reaches the mutation
   with **no lock held anywhere along it**, while an equally unlocked
   main-side path exists too.  Lock *identity* is not tracked: FT006
   proves the absence of unlocked cross-thread mutation pairs, not
   full race-freedom.

A finding fires when one piece of state is mutated unprotected on both
sides.  Two lexical checks ride along: bare ``.acquire()`` on a lock
(use ``with``), and ``threading.Thread`` construction with no
``join()`` teardown path.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..astutil import ImportMap, dotted_name
from ..callgraph import lockish_expr, type_env
from ..engine import Finding, Project, Rule, SourceFile
from . import register

#: Call targets that hand a callback sink to the bus (its ``emit``
#: then runs on every emitting thread).
_INSTALL_SINK_CALLS = {
    "repro.obs.install_sink",
    "repro.obs.trace.install_sink",
    "obs.install_sink",
    "trace.install_sink",
}

#: Container methods that mutate their receiver.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "remove", "discard", "pop",
    "popleft", "popitem", "clear", "update", "setdefault", "sort",
    "reverse", "appendleft",
})

#: Methods where instance state is *constructed*, not shared.
_INIT_METHODS = frozenset({"__init__", "__new__", "__post_init__"})

_THREAD_CLASS = "threading.Thread"


def _in_repro(module: str) -> bool:
    return module == "repro" or module.startswith("repro.")


@dataclass(frozen=True)
class _Site:
    """One mutation site."""

    fn: str             # qualname of the containing function
    path: str           # display path of the file
    line: int
    col: int
    under_lock: bool


class _MutationScanner:
    """Collects mutation sites for one function, with lock context."""

    def __init__(self, symtab: object, fn: object,
                 module_globals: Set[str],
                 out: Dict[Tuple[str, str], List[_Site]]) -> None:
        self.symtab = symtab
        self.fn = fn
        self.module_globals = module_globals
        self.out = out
        self.self_name, self.local_types = type_env(symtab, fn)
        self.global_decls: Set[str] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Global):
                self.global_decls.update(node.names)

    def scan(self) -> None:
        for stmt in getattr(self.fn.node, "body", ()):
            self._visit(stmt, under_lock=False)

    def _visit(self, node: ast.AST, under_lock: bool) -> None:
        if isinstance(node, ast.ClassDef):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            locked = under_lock
            for item in node.items:
                self._visit(item.context_expr, under_lock)
                if lockish_expr(self.symtab, self.fn.module,
                                item.context_expr):
                    locked = True
            for stmt in node.body:
                self._visit(stmt, locked)
            return
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._target(target, node, under_lock)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._target(node.target, node, under_lock)
        elif isinstance(node, ast.AugAssign):
            self._target(node.target, node, under_lock)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._target(target, node, under_lock)
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in _MUTATOR_METHODS):
                self._record_receiver(func.value, node, under_lock)
        for child in ast.iter_child_nodes(node):
            self._visit(child, under_lock)

    # -- key derivation -------------------------------------------------
    def _target(self, target: ast.AST, site: ast.AST,
                under_lock: bool) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._target(element, site, under_lock)
        elif isinstance(target, ast.Attribute):
            self._record_owner(target.value, target.attr, site, under_lock)
        elif isinstance(target, ast.Subscript):
            self._record_receiver(target.value, site, under_lock)
        elif isinstance(target, ast.Name):
            name = target.id
            if name in self.global_decls or (
                    name in self.module_globals
                    and isinstance(site, (ast.AugAssign, ast.Delete))):
                self._record((self.fn.module, name), site, under_lock)

    def _record_receiver(self, receiver: ast.AST, site: ast.AST,
                         under_lock: bool) -> None:
        """Mutating a container: key it by who owns the container."""
        if isinstance(receiver, ast.Attribute):
            self._record_owner(receiver.value, receiver.attr, site,
                               under_lock)
        elif isinstance(receiver, ast.Name):
            if receiver.id in self.module_globals \
                    and receiver.id not in self.local_types:
                self._record((self.fn.module, receiver.id), site,
                             under_lock)

    def _record_owner(self, owner_expr: ast.AST, attr: str, site: ast.AST,
                      under_lock: bool) -> None:
        owners: Set[str] = set()
        if isinstance(owner_expr, ast.Name) \
                and owner_expr.id == self.self_name \
                and self.fn.cls is not None:
            owners.add(self.fn.cls)
        else:
            owners |= self.symtab.expr_classes(
                self.fn.module, owner_expr, self.local_types)
            if isinstance(owner_expr, ast.Name) \
                    and not owners \
                    and owner_expr.id in self.module_globals \
                    and owner_expr.id not in self.local_types:
                # Attribute write through an untyped module-level
                # object: key by the module variable itself.
                self._record((self.fn.module, owner_expr.id), site,
                             under_lock)
                return
        for owner in owners:
            cls = self.symtab.classes.get(owner)
            if cls is not None and attr in cls.attr_sync:
                continue        # threading primitives guard themselves
            self._record((owner, attr), site, under_lock)

    def _record(self, key: Tuple[str, str], site: ast.AST,
                under_lock: bool) -> None:
        self.out.setdefault(key, []).append(_Site(
            fn=self.fn.qualname, path=self.fn.path,
            line=getattr(site, "lineno", self.fn.lineno),
            col=getattr(site, "col_offset", 0) + 1,
            under_lock=under_lock))


@register
class ConcurrencyRule(Rule):
    code = "FT006"
    name = "concurrency-safety"
    summary = ("state mutated both on a thread path (Thread targets, "
               "Thread.run, install_sink callbacks) and on the main "
               "path must hold a lock; plus bare .acquire() and "
               "threads without a join() teardown")

    # ------------------------------------------------------------------
    # per-file: bare .acquire() on locks
    # ------------------------------------------------------------------
    def check_file(self, f: SourceFile) -> Iterator[Finding]:
        if not _in_repro(f.module):
            return
        for node in ast.walk(f.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr == "acquire"):
                continue
            receiver = dotted_name(func.value)
            if receiver is not None \
                    and "lock" in receiver.rsplit(".", 1)[-1].lower():
                yield f.finding(
                    node, self.code,
                    f"bare {receiver}.acquire() — acquire locks with "
                    "'with ...:' so every exit path releases them",
                )

    # ------------------------------------------------------------------
    # whole-program: cross-thread mutation analysis
    # ------------------------------------------------------------------
    def finalize(self, project: Project) -> Iterator[Finding]:
        repro_files = [f for f in project.files if _in_repro(f.module)]
        if not repro_files:
            return
        symtab = project.symbols()
        graph = project.callgraph()

        entries, entry_why = self._thread_entries(symtab, repro_files)
        yield from self._teardown_findings(symtab, repro_files)
        if not entries:
            return

        # Lock-bounded reachability: an edge taken under ``with lock:``
        # is not traversed, so a lock at *any* frame protects the whole
        # cone below it (engine.poll's lock covers the executor ->
        # controller -> topology chain without a lock in each).
        thread_unlocked = graph.reachable(entries, unlocked_only=True)
        thread_all = graph.reachable(entries)
        repro_fns = {
            q for q, fn in symtab.functions.items()
            if _in_repro(fn.module)
        }
        main_roots = repro_fns - set(thread_all)
        main_unlocked = set(graph.reachable(main_roots,
                                            unlocked_only=True))

        mutations: Dict[Tuple[str, str], List[_Site]] = {}
        for f in repro_files:
            for qual, fn in symtab.functions.items():
                if fn.path != f.display or fn.is_module_body:
                    continue
                if fn.name in _INIT_METHODS:
                    continue
                _MutationScanner(symtab, fn,
                                 self._module_globals(symtab, fn.module),
                                 mutations).scan()

        for key in sorted(mutations):
            sites = mutations[key]
            unprot = [s for s in sites if not s.under_lock]
            inside = [s for s in unprot if s.fn in thread_unlocked]
            outside = [s for s in unprot if s.fn in main_unlocked]
            if not inside or not outside:
                continue
            site = min(inside, key=lambda s: (s.path, s.line, s.col))
            other = min((s for s in outside if s is not site),
                        key=lambda s: (s.path, s.line, s.col),
                        default=None)
            owner, attr = key
            chain = graph.path_to(thread_unlocked, site.fn)
            origin = chain[0]
            why = entry_why.get(origin, "thread entry")
            route = " -> ".join(chain[-4:])
            if other is None:
                where = ("here — the function runs on both the thread "
                         "and the main path")
            else:
                where = (f"here and on the main path at "
                         f"{other.path}:{other.line}")
            yield Finding(
                path=site.path, line=site.line, col=site.col,
                code=self.code,
                message=(
                    f"{owner}.{attr} is mutated on a thread path "
                    f"({why}; via {route}) {where} without a common "
                    "lock — guard both sites with the owning object's "
                    "lock or hand the data off thread-locally"),
            )

    # ------------------------------------------------------------------
    def _module_globals(self, symtab: object, module: str) -> Set[str]:
        f = symtab.modules.get(module)
        if f is None:
            return set()
        out: Set[str] = set()
        for node in f.tree.body:
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    out.add(target.id)
        return out

    def _thread_entries(self, symtab: object,
                        repro_files: List[SourceFile],
                        ) -> Tuple[Set[str], Dict[str, str]]:
        """Entry functions plus a human-readable reason per entry."""
        entries: Set[str] = set()
        why: Dict[str, str] = {}

        def add(qual: Optional[str], reason: str) -> None:
            if qual is not None:
                entries.add(qual)
                why.setdefault(qual, reason)

        # run() of threading.Thread subclasses.
        for cls_qual, cls in symtab.classes.items():
            if not _in_repro(cls.module):
                continue
            if symtab.has_external_base(cls_qual, _THREAD_CLASS):
                add(symtab.lookup_method(cls_qual, "run"),
                    f"{cls.name} subclasses threading.Thread")

        for f in repro_files:
            imap = ImportMap.of(f.tree)
            for qual, fn in symtab.functions.items():
                if fn.path != f.display:
                    continue
                self_name, local_types = type_env(symtab, fn)
                for node in ast.walk(fn.node):
                    if not isinstance(node, ast.Call):
                        continue
                    resolved = imap.resolve_call(node.func)
                    if resolved == _THREAD_CLASS:
                        target = next(
                            (kw.value for kw in node.keywords
                             if kw.arg == "target"), None)
                        if target is None and node.args:
                            # Thread(group, target) positional form.
                            target = node.args[1] if len(node.args) > 1 \
                                else None
                        for entry in self._callable_targets(
                                symtab, fn, target, local_types):
                            add(entry, "threading.Thread target")
                    elif resolved in _INSTALL_SINK_CALLS \
                            or symtab.resolve(
                                fn.module,
                                dotted_name(node.func)) in (
                                "repro.obs.trace.install_sink",):
                        if not node.args:
                            continue
                        sink_classes = symtab.expr_classes(
                            fn.module, node.args[0], local_types)
                        if sink_classes:
                            for cls_qual in sorted(sink_classes):
                                add(symtab.lookup_method(cls_qual, "emit"),
                                    "install_sink callback")
                                for override in symtab.overrides(
                                        symtab.lookup_method(cls_qual,
                                                             "emit") or ""):
                                    add(override, "install_sink callback")
                        else:
                            # Unresolvable sink: widen to every emit.
                            for method in symtab.methods_by_name.get(
                                    "emit", ()):
                                if _in_repro(method.module):
                                    add(method.qualname,
                                        "install_sink callback (widened)")
        return entries, why

    def _callable_targets(self, symtab: object, fn: object,
                          target: Optional[ast.AST],
                          local_types: Dict[str, Set[str]]) -> List[str]:
        if target is None:
            return []
        out: List[str] = []
        if isinstance(target, ast.Attribute):
            receivers = symtab.expr_classes(fn.module, target.value,
                                            local_types)
            for cls_qual in sorted(receivers):
                method = symtab.lookup_method(cls_qual, target.attr)
                if method is not None:
                    out.append(method)
            if not out:         # widen by name rather than drop
                out = [m.qualname for m in
                       symtab.methods_by_name.get(target.attr, ())
                       if _in_repro(m.module)]
        elif isinstance(target, ast.Name):
            qual = symtab.resolve(fn.module, target.id)
            if qual is not None and qual in symtab.functions:
                out.append(qual)
        return out

    def _teardown_findings(self, symtab: object,
                           repro_files: List[SourceFile],
                           ) -> Iterator[Finding]:
        for f in repro_files:
            imap = ImportMap.of(f.tree)
            joined_attrs = self._joined_self_attrs(f)
            for node in ast.walk(f.tree):
                if not isinstance(node, ast.Call) \
                        or imap.resolve_call(node.func) != _THREAD_CLASS:
                    continue
                verdict = self._thread_retained(f, node, joined_attrs)
                if verdict is not None:
                    yield f.finding(node, self.code, verdict)

    def _joined_self_attrs(self, f: SourceFile) -> Set[str]:
        """self attributes that have a ``self.<attr>.join(...)`` site."""
        out: Set[str] = set()
        for node in ast.walk(f.tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "join" \
                    and isinstance(node.func.value, ast.Attribute) \
                    and isinstance(node.func.value.value, ast.Name):
                out.add(node.func.value.attr)
        return out

    def _thread_retained(self, f: SourceFile, ctor: ast.Call,
                         joined_attrs: Set[str]) -> Optional[str]:
        """None when the thread has a teardown path, else the finding."""
        for node in ast.walk(f.tree):
            # self.X = threading.Thread(...): joined iff self.X.join()
            # appears somewhere in the file.
            if isinstance(node, ast.Assign) and node.value is ctor:
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        if target.attr in joined_attrs:
                            return None
                        return (f"thread stored on self.{target.attr} is "
                                "never join()ed — give it a stop()/join() "
                                "teardown path")
                    if isinstance(target, ast.Name):
                        if self._local_joined(f, target.id):
                            return None
                        return (f"thread stored in {target.id!r} is never "
                                "join()ed — join it before the function "
                                "returns")
            # threading.Thread(...).start() never retains a handle.
            if isinstance(node, ast.Attribute) and node.value is ctor \
                    and node.attr == "start":
                return ("thread started without retaining a handle — "
                        "keep it and join() it on teardown")
        return ("thread constructed without a retained handle — store "
                "it and join() it on teardown")

    def _local_joined(self, f: SourceFile, name: str) -> bool:
        for node in ast.walk(f.tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "join" \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == name:
                return True
        return False

