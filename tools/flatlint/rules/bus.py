"""FT005 — the bus is the only emission path.

Every wire event leaves through the bus helpers (``obs.event`` /
``obs.publish`` / the metric helpers): the one place that builds the
wire envelope (``ts``, ``name``, ``kind``) the contract checks, and
the one place a change to the bus has to reach.  A library module
that grabs ``obs.current_sink()`` and calls ``.emit(...)`` on it
writes *around* them, and nothing fails.

This rule forbids direct sink writes in ``repro.*`` outside the one
package that owns the plumbing (``repro.obs`` itself):

* chained ``obs.current_sink().emit(...)`` calls;
* ``.emit(...)`` on any variable assigned from ``current_sink()``
  anywhere in the same file;
* ``obs.install_sink(...)`` — ``repro.obs`` has no such function any
  more; the clause stays so that a reintroduced sink swap (a bus tee
  that runs on every emitting thread) is caught.

Tests and tools are exempt (they exercise sinks directly on purpose).
The sanctioned alternative for raw wire events is
:func:`repro.obs.publish`.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..astutil import ImportMap
from ..engine import Finding, Rule, SourceFile
from . import register

#: Resolved call targets that return the live sink.
_CURRENT_SINK_CALLS = {
    "repro.obs.current_sink",
    "repro.obs.trace.current_sink",
    "obs.current_sink",
    "trace.current_sink",
}

#: Resolved call targets that swap the live sink.
_INSTALL_SINK_CALLS = {
    "repro.obs.install_sink",
    "repro.obs.trace.install_sink",
    "obs.install_sink",
    "trace.install_sink",
}

#: Packages allowed to touch the sink directly: the bus implementation.
_EXEMPT_PACKAGES = ("repro.obs",)


def _exempt(module: str) -> bool:
    if not module.startswith("repro."):
        return True  # tests/tools poke sinks on purpose
    return any(
        module == pkg or module.startswith(pkg + ".")
        for pkg in _EXEMPT_PACKAGES
    )


def _is_current_sink_call(node: ast.AST, imports: ImportMap) -> bool:
    return (isinstance(node, ast.Call)
            and imports.resolve_call(node.func) in _CURRENT_SINK_CALLS)


@register
class BusEmissionRule(Rule):
    code = "FT005"
    name = "bus-emission"
    summary = ("direct sink writes (current_sink().emit / install_sink) "
               "are reserved to repro.obs — emit through "
               "obs.publish/obs.event instead")

    def check_file(self, f: SourceFile) -> Iterator[Finding]:
        if _exempt(f.module):
            return
        imports = ImportMap.of(f.tree)
        # Pass 1: names bound to the live sink anywhere in the file.
        sink_names: Set[str] = set()
        for node in ast.walk(f.tree):
            if isinstance(node, ast.Assign) and \
                    _is_current_sink_call(node.value, imports):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        sink_names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and node.value is not None \
                    and _is_current_sink_call(node.value, imports):
                if isinstance(node.target, ast.Name):
                    sink_names.add(node.target.id)
        # Pass 2: flag the writes.
        for node in ast.walk(f.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "emit":
                receiver = func.value
                direct = _is_current_sink_call(receiver, imports)
                via_name = (isinstance(receiver, ast.Name)
                            and receiver.id in sink_names)
                if direct or via_name:
                    yield f.finding(
                        node, self.code,
                        "direct sink .emit() bypasses the bus helpers "
                        "that build the wire envelope — emit through "
                        "obs.publish(kind, name, **fields) or obs.event "
                        "instead",
                    )
            elif imports.resolve_call(func) in _INSTALL_SINK_CALLS:
                yield f.finding(
                    node, self.code,
                    "obs.install_sink() interposes on the telemetry bus "
                    "— library code must not swap sinks; choose one "
                    "with obs.enable(sink)",
                )
