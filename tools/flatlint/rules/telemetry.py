"""FT002 — the telemetry event contract, statically enforced.

The wire contract lives in :mod:`repro.obs.contract` (one registry
shared by the runtime JSONL validator, this rule, and the docs).  The
rule proves both directions at lint time:

* every *literal* event name passed to ``obs.event(...)`` (or
  ``trace.event`` / ``from repro.obs import event``) is registered,
  and carries that name's required attributes as keyword arguments;
* every registered name still has at least one emit site somewhere in
  ``repro.*`` — a registration whose last emit site was deleted is
  dead contract surface and is flagged on its line in ``contract.py``.

The coverage direction only fires when ``repro.obs.contract`` itself
is part of the linted file set (i.e. a full ``src`` lint), so linting
a single file never reports the whole registry as unused.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, Set

from ..astutil import ImportMap
from ..engine import Finding, Project, Rule, SourceFile
from . import register


def _load_contract():
    try:
        from repro.obs import contract
    except ImportError:  # standalone checkout: put src/ on the path
        sys.path.insert(
            0, str(Path(__file__).resolve().parents[3] / "src"))
        from repro.obs import contract
    return contract


#: Call targets that emit a one-off event, after loose resolution
#: (``obs.event`` covers both ``from repro import obs`` and a bare
#: attribute chain the resolver could not trace to an import).
_EVENT_CALLS = {
    "repro.obs.event",
    "repro.obs.trace.event",
    "obs.event",
    "trace.event",
}

_CONTRACT_MODULE = "repro.obs.contract"


@register
class TelemetryContractRule(Rule):
    code = "FT002"
    name = "telemetry-contract"
    summary = ("literal obs.event() names must be registered in "
               "repro.obs.contract with their required attributes, and "
               "every registered name must keep an emit site")

    def __init__(self) -> None:
        self._contract = _load_contract()
        self._emitted: Set[str] = set()

    def check_file(self, f: SourceFile) -> Iterator[Finding]:
        imports = ImportMap.of(f.tree)
        if f.module == _CONTRACT_MODULE:
            return
        for node in ast.walk(f.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve_call(node.func)
            if resolved not in _EVENT_CALLS:
                continue
            yield from self._check_emit(f, node)

    def _check_emit(self, f: SourceFile,
                    node: ast.Call) -> Iterator[Finding]:
        # Library code may only emit registered, literal names.  Tests
        # and tools may use scratch names to exercise the plumbing —
        # but when they emit a *registered* name, its required fields
        # still apply.
        in_library = f.module.startswith("repro.")
        if not node.args:
            return
        name_node = node.args[0]
        if not (isinstance(name_node, ast.Constant)
                and isinstance(name_node.value, str)):
            if in_library:
                yield f.finding(
                    node, self.code,
                    "dynamic event name — pass a literal string so the "
                    "contract can be checked statically (or register a "
                    "name per variant)",
                )
            return
        name = name_node.value
        known = self._contract.KNOWN_EVENT_NAMES
        if name not in known:
            if in_library:
                yield f.finding(
                    node, self.code,
                    f"event name {name!r} is not registered in "
                    f"repro.obs.contract.EVENT_FIELDS — register it "
                    f"(and document it in docs/observability.md) "
                    f"before emitting",
                )
            return
        if in_library:
            self._emitted.add(name)
        if any(kw.arg is None for kw in node.keywords):
            return  # **attrs forwarding: field presence is dynamic
        provided = {kw.arg for kw in node.keywords if kw.arg is not None}
        missing = sorted(
            self._contract.EVENT_FIELDS[name].keys() - provided - {"value"})
        if missing:
            yield f.finding(
                node, self.code,
                f"event {name!r} emitted without required "
                f"attribute(s) {', '.join(missing)} (see "
                f"repro.obs.contract.EVENT_FIELDS)",
            )

    def finalize(self, project: Project) -> Iterator[Finding]:
        contract_file = project.by_module(_CONTRACT_MODULE)
        if contract_file is None:
            return
        for name in sorted(self._contract.KNOWN_EVENT_NAMES):
            if name in self._emitted:
                continue
            line = 1
            needle = f'"{name}"'
            for lineno, text in enumerate(contract_file.lines, start=1):
                if needle in text:
                    line = lineno
                    break
            yield Finding(
                path=contract_file.display,
                line=line,
                col=1,
                code=self.code,
                message=(
                    f"registered event name {name!r} has no emit site "
                    "left in repro.* — delete the registration (and its "
                    "docs entry) or restore the obs.event call"
                ),
            )
