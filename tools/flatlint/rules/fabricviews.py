"""FT008 — no cached networkx views on a fabric.

networkx caches the ``edges`` and ``degree`` views of a graph on the
graph itself, and each view holds the graph: once read, a fabric sits
in a reference cycle and outlives its network until the cycle collector
runs.  That kept every served network of the fluid simulator alive
(``peak_rss_mb`` 56.75 → 53.98 MB when fair share stopped reading the
view) and left two temporary fabrics behind each two-stage flat-tree
build.  ``Network.bundles()`` walks the adjacency once per edge, in the
same order, and ``Network.degree`` counts a switch's cables.

In ``repro.*`` this rule flags ``.edges`` and ``.degree`` read on a
fabric: an expression ending in ``fabric`` or ``_fabric``, or an alias
of one.  An alias is a name or attribute chain assigned a fabric, plain
or annotated, and it holds in the function (or module) that assigns it
and in the functions nested there; ``self.x`` assigned a fabric in any
method holds in the whole class.  A fabric passed as an argument or
returned by a call is not followed.  Tests are exempt, since they use
networkx's walk as the oracle.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from ..astutil import dotted_name
from ..engine import Finding, Rule, SourceFile
from . import register

_FABRICS = {"fabric", "_fabric"}
_VIEWS = {"edges", "degree"}
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _is_fabric(node: ast.AST, aliases: Set[str]) -> bool:
    if isinstance(node, (ast.Attribute, ast.Name)):
        name = node.attr if isinstance(node, ast.Attribute) else node.id
        return name in _FABRICS or dotted_name(node) in aliases
    return False


def _fabric_targets(node: ast.AST, aliases: Set[str]) -> List[str]:
    """The names and attribute chains ``node`` binds to a fabric."""
    if isinstance(node, ast.Assign):
        targets, value = node.targets, node.value
    elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)):
        targets, value = [node.target], node.value
    else:
        return []
    if value is None or not _is_fabric(value, aliases):
        return []
    return [name for name in map(dotted_name, targets) if name]


def _own_nodes(scope: ast.AST) -> List[ast.AST]:
    """The nodes of ``scope`` outside nested scopes, in source order."""
    nodes, stack = [], list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return sorted(nodes, key=lambda n: (getattr(n, "lineno", 0),
                                        getattr(n, "col_offset", 0)))


@register
class FabricViewRule(Rule):
    code = "FT008"
    name = "fabric-views"
    summary = ("fabric.edges / fabric.degree cache a view that holds the "
               "graph — walk Network.bundles() or the adjacency instead")

    def check_file(self, f: SourceFile) -> Iterator[Finding]:
        if not f.module.startswith("repro."):
            return
        yield from self._check_scope(f, f.tree, set())

    def _check_scope(self, f: SourceFile, scope: ast.AST,
                     inherited: Set[str]) -> Iterator[Finding]:
        aliases = set(inherited)
        if isinstance(scope, ast.ClassDef):
            for node in ast.walk(scope):
                aliases.update(name for name in _fabric_targets(node, aliases)
                               if name.startswith("self."))
        own = _own_nodes(scope)
        for node in own:
            aliases.update(_fabric_targets(node, aliases))
        for node in own:
            if isinstance(node, _SCOPES):
                yield from self._check_scope(f, node, aliases)
            elif (isinstance(node, ast.Attribute) and node.attr in _VIEWS
                    and _is_fabric(node.value, aliases)):
                yield f.finding(
                    node, self.code,
                    f"fabric.{node.attr} makes networkx cache a view that "
                    f"holds the graph, so the fabric outlives its network "
                    f"until the cycle collector runs — walk "
                    f"Network.bundles() (or the adjacency) instead",
                )
