"""flatlint — domain-aware static analysis for the Flat-tree repo.

An AST-based lint engine whose rules encode this repository's actual
invariants rather than generic style:

* **FT001 determinism** — no unseeded global RNG, no wall clock inside
  simulation code, no order-sensitive iteration over bare sets;
* **FT002 telemetry-contract** — literal ``obs.event`` names must be
  registered in :mod:`repro.obs.contract` (and vice versa: registered
  names must keep an emit site), required attributes checked;
* **FT003 hygiene** — mutable defaults, swallowing broad excepts,
  float ``==`` on capacity-like quantities;
* **FT004 layering** — module-scope imports follow a declared package
  DAG; ``repro.obs`` internals stay private.
* **FT005 bus-emission** — telemetry leaves through ``obs.publish`` /
  ``obs.event``; direct ``Sink.emit`` calls and ``obs.install_sink``
  stay inside ``repro.obs``.
* **FT006 concurrency-safety** — interprocedural: state mutated both
  on a thread (reachable from a ``threading.Thread`` entry point over
  the project call graph) and on the main path, with no lock held on
  either route; bare ``.acquire()``; threads without a teardown path;
* **FT007 determinism-taint** — interprocedural: wall-clock / RNG /
  entropy values flowing through the call graph into replay-critical
  sinks (remediation ledger, health reports, trace-diff reports),
  reported with the full source-to-sink call path;
* **FT008 fabric-views** — no ``.edges`` / ``.degree`` read on a
  fabric in ``repro.*``: networkx caches those views on the graph and
  each holds it, so the fabric outlives its network.

FT006/FT007 run on a whole-program symbol table and call graph
(:mod:`tools.flatlint.symbols`, :mod:`tools.flatlint.callgraph`);
export the graph with ``python -m tools.flatlint graph``.

Run ``python -m tools.flatlint src tests`` (see ``make lint``) or
``--changed-only`` for the git-diff-scoped fast path (``make
lint-fast``); suppress a finding in place with ``# flatlint:
disable=FT0xx``.  The full catalog lives in ``docs/static-analysis.md``.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from .engine import (
    Finding,
    PARSE_ERROR_CODE,
    Project,
    Rule,
    lint_paths,
    render_json,
    render_text,
)
from .rules import all_rules

__version__ = "2.0.0"

#: Packages held to mypy's strict flags in pyproject.toml — keep in
#: sync with the [[tool.mypy.overrides]] table (tests assert this).
MYPY_STRICT_PACKAGES: Tuple[str, ...] = (
    "repro.obs", "repro.monitor", "repro.chaos",
    "repro.health", "repro.selfheal",
)


def run(paths: List[str],
        select: Optional[Set[str]] = None,
        context_paths: Optional[List[str]] = None,
        ) -> Tuple[List[Finding], int]:
    """Lint *paths* with every registered rule.

    Returns ``(findings, files_checked)`` — the library entry point
    used by the CLI, ``flattree info`` and the test suite.  When
    *context_paths* is given, files found only there are parsed into
    the project (so the whole-program rules see the full call graph)
    but never produce findings and are not counted as checked.
    """
    findings, project = lint_paths(paths, all_rules(), select,
                                   context_paths=context_paths)
    checked = sum(1 for f in project.files if f.is_target)
    return findings, checked


def capability_line() -> str:
    """One-line lint capability summary for ``flattree info``."""
    rules = all_rules()
    codes = ", ".join(f"{rule.code} {rule.name}" for rule in rules)
    strict = ", ".join(MYPY_STRICT_PACKAGES)
    return (
        f"flatlint {len(rules)} rules ({codes}); "
        f"mypy strict on {strict} (make lint, docs/static-analysis.md)"
    )


__all__ = [
    "Finding",
    "MYPY_STRICT_PACKAGES",
    "PARSE_ERROR_CODE",
    "Project",
    "Rule",
    "all_rules",
    "capability_line",
    "lint_paths",
    "render_json",
    "render_text",
    "run",
    "__version__",
]
