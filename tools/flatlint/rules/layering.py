"""FT004 — import layering.

The library's package DAG is declared here, explicitly, and every
*module-scope* ``import repro.X`` is checked against it.  Function-
level (lazy) imports are the sanctioned escape hatch for genuine
cycles — ``repro.core.reconfigure`` pulling ``ChaosClock`` inside a
function is fine; ``repro.topology`` importing ``repro.monitor`` at
module scope is not.

A second sub-check guards :mod:`repro.obs` internals: outside the obs
package itself, only the public facade (``repro.obs``) and its
published submodules (``sinks``, ``stats``, ``contract``, ``perf``,
``diffprof``) may be imported —
``repro.obs.trace`` / ``registry`` / ``render`` are implementation
details.  Both checks apply to ``repro.*`` modules
only; tests and tools may poke wherever they need.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional

from ..engine import Finding, Rule, SourceFile
from . import register

_FOUNDATION = frozenset({"repro.errors", "repro.obs"})

#: The declared package DAG: every module-scope import from package K
#: must target K itself or a member of ALLOWED[K].  Additions must
#: keep this acyclic — extend deliberately, in review, not ad hoc.
ALLOWED: Dict[str, FrozenSet[str]] = {
    "repro.errors": frozenset(),
    "repro.obs": frozenset({"repro.errors"}),
    "repro.topology": _FOUNDATION,
    "repro.mcf": _FOUNDATION | {"repro.topology"},
    "repro.routing": _FOUNDATION | {"repro.topology"},
    "repro.analysis": _FOUNDATION | {"repro.topology", "repro.mcf"},
    "repro.flowsim": _FOUNDATION | {"repro.topology", "repro.routing"},
    "repro.monitor": _FOUNDATION | {"repro.topology", "repro.routing"},
    "repro.traffic": _FOUNDATION | {"repro.topology", "repro.mcf"},
    "repro.core": _FOUNDATION | {
        "repro.topology", "repro.mcf", "repro.routing"},
    "repro.chaos": _FOUNDATION | {"repro.topology", "repro.core"},
    # The health plane consumes only the wire contract: it reads bus
    # events, never simulator/topology state, so it sits on the
    # foundation alone and any producer stays importable without it.
    "repro.health": _FOUNDATION,
    # The remediation plane closes the loop: it consumes health-plane
    # alerts and drives the conversion/chaos/flowsim machinery, so it
    # sits above all of them (and below experiments/cli).
    "repro.selfheal": _FOUNDATION | {
        "repro.topology", "repro.routing", "repro.flowsim", "repro.core",
        "repro.chaos", "repro.health"},
    "repro.experiments": _FOUNDATION | {
        "repro.topology", "repro.mcf", "repro.routing", "repro.flowsim",
        "repro.traffic", "repro.monitor", "repro.core", "repro.chaos",
        "repro.analysis", "repro.health", "repro.selfheal"},
    "repro.cli": _FOUNDATION | {
        "repro.topology", "repro.mcf", "repro.routing", "repro.flowsim",
        "repro.traffic", "repro.monitor", "repro.core", "repro.chaos",
        "repro.analysis", "repro.experiments", "repro.health",
        "repro.selfheal"},
}

#: repro.obs submodules that are public API; everything else is
#: internal to the obs package.
PUBLIC_OBS_SUBMODULES = frozenset({
    "sinks", "stats", "contract", "perf", "diffprof"})


def _package_of(module: str) -> str:
    """``repro.core.scaling`` -> ``repro.core``; ``repro`` -> ``repro``."""
    parts = module.split(".")
    return ".".join(parts[:2])


def _resolve_relative(f: SourceFile, node: ast.ImportFrom) -> Optional[str]:
    """Absolute module targeted by a (possibly relative) ImportFrom."""
    if node.level == 0:
        return node.module
    parts = f.module.split(".")
    if not f.path.name == "__init__.py":
        parts = parts[:-1]
    if node.level - 1 > len(parts):
        return None
    base = parts[: len(parts) - (node.level - 1)]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base) if base else None


def _import_targets(f: SourceFile, node: ast.AST) -> List[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        target = _resolve_relative(f, node)
        return [target] if target else []
    return []


@register
class LayeringRule(Rule):
    code = "FT004"
    name = "layering"
    summary = ("module-scope imports must follow the declared package "
               "DAG; repro.obs internals stay inside repro.obs")

    def check_file(self, f: SourceFile) -> Iterator[Finding]:
        if not f.module.startswith("repro"):
            return
        package = _package_of(f.module)
        if package != "repro":  # the root facade may re-export anything
            yield from self._check_dag(f, package)
        yield from self._check_obs_internals(f, package)

    def _check_dag(self, f: SourceFile, package: str) -> Iterator[Finding]:
        allowed = ALLOWED.get(package)
        for node in f.tree.body:
            for target in _import_targets(f, node):
                if not target.startswith("repro"):
                    continue
                target_package = _package_of(target)
                if target_package in (package, "repro"):
                    continue
                if allowed is None:
                    yield f.finding(
                        node, self.code,
                        f"package {package!r} is not in the declared "
                        "layering DAG — add it (with its allowed "
                        "dependencies) to tools/flatlint/rules/"
                        "layering.py",
                    )
                    return
                if target_package not in allowed:
                    yield f.finding(
                        node, self.code,
                        f"{package} may not import {target_package} at "
                        f"module scope (allowed: "
                        f"{', '.join(sorted(allowed)) or 'nothing'}); "
                        "use a function-level import only for a "
                        "documented cycle-break",
                    )

    def _check_obs_internals(self, f: SourceFile,
                             package: str) -> Iterator[Finding]:
        if package == "repro.obs" or f.module == "repro":
            return
        for node in ast.walk(f.tree):
            for target in _import_targets(f, node):
                if target is None or not target.startswith("repro.obs."):
                    submodules: List[str] = []
                    if (isinstance(node, ast.ImportFrom)
                            and target == "repro.obs"):
                        submodules = [
                            alias.name for alias in node.names
                            if alias.name in ("trace", "registry", "render")
                        ]
                    if not submodules:
                        continue
                    internal = submodules[0]
                else:
                    internal = target.split(".")[2]
                    if internal in PUBLIC_OBS_SUBMODULES:
                        continue
                yield f.finding(
                    node, self.code,
                    f"repro.obs.{internal} is internal to the obs "
                    "package — import the repro.obs facade (or one of "
                    f"{', '.join(sorted(PUBLIC_OBS_SUBMODULES))}) "
                    "instead",
                )
