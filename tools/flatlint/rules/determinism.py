"""FT001 — determinism.

The experiments (and the paper's conversion-cost comparisons) depend
on runs being bit-for-bit reproducible per seed: ``make chaos-smoke``
literally ``cmp``'s two sweep outputs.  Four things silently break
that property and are flagged here:

* **module-level RNG** — ``random.random()`` / ``np.random.rand()``
  draw from hidden global state instead of a seeded
  ``random.Random`` / ``numpy.random.default_rng`` instance;
* **wall clock in simulation code** — ``time.time()`` /
  ``datetime.now()`` inside ``repro.chaos`` / ``repro.flowsim`` /
  ``repro.experiments``, where all time must come from the simulated
  clock (telemetry timestamps in ``repro.obs`` are exempt by scope);
* **ordered consumption of unordered sets** — iterating a bare
  ``set(...)`` (or set union/intersection) into a list, loop, join or
  RNG choice leaks ``PYTHONHASHSEED``-dependent ordering into output;
* **hash-derived seeds** — the builtin ``hash()`` of a str or bytes
  changes per process with ``PYTHONHASHSEED``, so ``hash(...)`` inside
  the arguments of ``random.Random``, ``default_rng`` or a ``seed``
  call gives every process a different stream for the same seed.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from ..astutil import ImportMap
from ..engine import Finding, Rule, SourceFile
from . import register

#: Constructors that *are* the sanctioned way to get randomness.
_SEEDED_RANDOM = {"Random", "SystemRandom"}
_SEEDED_NUMPY = {"default_rng", "Generator", "RandomState", "SeedSequence"}

#: Wall-clock call targets (fully resolved through the import map).
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Packages whose code runs inside the simulated timeline.
_WALL_CLOCK_SCOPES = ("repro.chaos", "repro.flowsim", "repro.experiments")

#: Callees whose arguments become an RNG seed (matched by final name,
#: so ``rng.seed(...)`` on a local generator counts too).
_SEED_SINKS = {"Random", "default_rng", "RandomState", "SeedSequence",
               "seed"}

#: ``x.choice(set(...))``-style consumers whose result order matters.
_ORDER_SENSITIVE_METHODS = {"choice", "choices", "sample", "shuffle", "join"}


def _is_setish(node: ast.AST) -> bool:
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return _is_setish(node.left) or _is_setish(node.right)
    return False


def _in_wall_clock_scope(module: str) -> bool:
    return any(
        module == scope or module.startswith(scope + ".")
        for scope in _WALL_CLOCK_SCOPES
    )


@register
class DeterminismRule(Rule):
    code = "FT001"
    name = "determinism"
    summary = ("unseeded global RNG, wall-clock reads in simulation "
               "code, order-sensitive iteration over bare sets, and "
               "hash()-derived seeds")

    def check_file(self, f: SourceFile) -> Iterator[Finding]:
        imports = ImportMap.of(f.tree)
        wall_clock_scope = _in_wall_clock_scope(f.module)
        for node in ast.walk(f.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(f, node, imports,
                                            wall_clock_scope)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_set_order(f, node.iter, "for-loop")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp)):
                for gen in node.generators:
                    yield from self._check_set_order(
                        f, gen.iter, "comprehension")

    def _check_call(self, f: SourceFile, node: ast.Call,
                    imports: ImportMap,
                    wall_clock_scope: bool) -> Iterator[Finding]:
        resolved = imports.resolve_imported(node.func)
        if resolved is not None:
            yield from self._check_global_rng(f, node, resolved)
            if wall_clock_scope and resolved in _WALL_CLOCK:
                yield f.finding(
                    node, self.code,
                    f"wall-clock {resolved}() inside {f.module} — "
                    "simulation code must take time from the simulated "
                    "clock (or an injected time source), never the host",
                )
        yield from self._check_set_consumers(f, node)
        yield from self._check_hash_seed(f, node, imports)

    def _check_global_rng(self, f: SourceFile, node: ast.Call,
                          resolved: str) -> Iterator[Finding]:
        parts = resolved.split(".")
        if parts[0] == "random" and len(parts) == 2:
            if parts[1] not in _SEEDED_RANDOM:
                yield f.finding(
                    node, self.code,
                    f"module-level random.{parts[1]}() draws from the "
                    "global RNG — route randomness through a seeded "
                    "random.Random instance",
                )
        elif parts[0] == "numpy" and len(parts) >= 3 and parts[1] == "random":
            if parts[-1] not in _SEEDED_NUMPY:
                yield f.finding(
                    node, self.code,
                    f"global numpy RNG call {resolved}() — use a "
                    "numpy.random.default_rng(seed) generator instead",
                )

    def _check_hash_seed(self, f: SourceFile, node: ast.Call,
                         imports: ImportMap) -> Iterator[Finding]:
        func = node.func
        callee = (func.attr if isinstance(func, ast.Attribute)
                  else func.id if isinstance(func, ast.Name) else None)
        if callee not in _SEED_SINKS:
            return
        seeds = [*node.args, *(kw.value for kw in node.keywords)]
        for arg in seeds:
            for inner in ast.walk(arg):
                if (isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Name)
                        and inner.func.id == "hash"
                        and imports.resolve_imported(inner.func) is None):
                    yield f.finding(
                        inner, self.code,
                        f"builtin hash() feeds the seed of {callee}(...) — "
                        "a str/bytes hash changes per process with "
                        "PYTHONHASHSEED; derive the seed stably, e.g. "
                        "zlib.crc32(name.encode())",
                    )

    def _check_set_order(self, f: SourceFile, iter_node: ast.AST,
                         where: str) -> Iterator[Finding]:
        if _is_setish(iter_node):
            yield f.finding(
                iter_node, self.code,
                f"{where} iterates an unordered set expression — "
                "iteration order depends on PYTHONHASHSEED; wrap it in "
                "sorted(...) before it can feed output or RNG choice",
            )

    def _check_set_consumers(self, f: SourceFile,
                             node: ast.Call) -> Iterator[Finding]:
        func = node.func
        args: Iterable[ast.AST] = node.args
        if isinstance(func, ast.Name) and func.id in ("list", "tuple"):
            if any(_is_setish(arg) for arg in args):
                yield f.finding(
                    node, self.code,
                    f"{func.id}() materializes an unordered set in "
                    "arbitrary order — use sorted(...) to pin the order",
                )
        elif isinstance(func, ast.Attribute) and \
                func.attr in _ORDER_SENSITIVE_METHODS:
            if any(_is_setish(arg) for arg in args):
                yield f.finding(
                    node, self.code,
                    f".{func.attr}(...) consumes an unordered set — "
                    "its result depends on PYTHONHASHSEED; pass "
                    "sorted(...) instead",
                )
