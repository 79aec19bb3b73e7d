#!/usr/bin/env python3
"""Validate a telemetry JSONL stream against the event wire contract.

The contract itself — legal ``kind`` values, the one-off event-name
registry and the typed field tables of each kind and event name —
lives in :mod:`repro.obs.contract`, shared with the ``tools.flatlint``
static pass (rule FT002) so the three checkers can never drift.  This
script is the runtime half: it replays a JSONL file through the
contract's ``check_line`` and reports every violating line.  See
``docs/observability.md`` for the contract prose.

Usage::

    python tools/check_telemetry.py run.jsonl [--min-names N]

Exits 0 when every line validates (and, with ``--min-names``, when at
least N distinct metric/span names appear); prints the offending line
and exits 1 otherwise.  Used by ``make telemetry-smoke``,
``make monitor-smoke`` and CI.  Runs standalone from a repo checkout:
when ``repro`` is not already importable it adds the sibling ``src/``
directory to ``sys.path``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

try:
    from repro.obs import contract
except ImportError:  # standalone invocation: python tools/check_telemetry.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.obs import contract


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", help="JSONL file emitted under --telemetry")
    parser.add_argument(
        "--min-names",
        type=int,
        default=0,
        metavar="N",
        help="require at least N distinct event names (coverage check)",
    )
    args = parser.parse_args(argv)

    try:
        with open(args.path, "r", encoding="utf-8") as stream:
            lines = [line for line in stream.read().splitlines() if line.strip()]
    except OSError as exc:
        print(f"check_telemetry: cannot read {args.path}: {exc}", file=sys.stderr)
        return 1

    if not lines:
        print(f"check_telemetry: {args.path} has no events", file=sys.stderr)
        return 1

    errors = 0
    names = set()
    for lineno, line in enumerate(lines, start=1):
        problems = contract.check_line(line)
        if problems:
            errors += 1
            print(
                f"check_telemetry: {args.path}:{lineno}: "
                + "; ".join(problems),
                file=sys.stderr,
            )
            print(f"  {line}", file=sys.stderr)
        else:
            names.add(json.loads(line)["name"])

    if errors:
        print(
            f"check_telemetry: {errors}/{len(lines)} invalid lines",
            file=sys.stderr,
        )
        return 1
    if len(names) < args.min_names:
        print(
            f"check_telemetry: only {len(names)} distinct names "
            f"(need {args.min_names}): {sorted(names)}",
            file=sys.stderr,
        )
        return 1
    print(
        f"check_telemetry: {args.path} OK — "
        f"{len(lines)} events, {len(names)} distinct names"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
