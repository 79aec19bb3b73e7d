"""Check a bench run's tables against the committed RESULTS.txt.

Usage::

    python benchmarks/golden.py COMMITTED RUN

Every ``== title ==`` table in RUN must equal, line for line, the block
of the same title in COMMITTED.  ``make golden`` runs the benches whose
tables come from fixed seeds (no wall-clock figures) and calls this
script, so a change that moves any reproduced number fails loudly.

Exit codes: 0 every table matches, 1 a table differs or has no
committed block (a unified diff is printed per table), 2 usage error.
"""

from __future__ import annotations

import difflib
import sys
from typing import Dict, List


def tables(text: str) -> Dict[str, List[str]]:
    """The body lines of every ``== title ==`` block, by title."""
    blocks: Dict[str, List[str]] = {}
    body: List[str] = []
    for line in text.splitlines():
        if line.startswith("== ") and line.endswith(" =="):
            body = blocks.setdefault(line, [])
        elif blocks:
            body.append(line)
    for body in blocks.values():
        while body and not body[-1].strip():
            body.pop()
    return blocks


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: python benchmarks/golden.py COMMITTED RUN",
              file=sys.stderr)
        return 2
    committed_path, run_path = argv
    with open(committed_path, encoding="utf-8") as handle:
        committed = tables(handle.read())
    with open(run_path, encoding="utf-8") as handle:
        run = tables(handle.read())
    if not run:
        print(f"golden: {run_path} holds no tables")
        return 1
    differ = 0
    for title, body in run.items():
        if title not in committed:
            print(f"golden: {title} has no committed block")
            differ += 1
        elif body != committed[title]:
            print("\n".join(difflib.unified_diff(
                committed[title], body, lineterm="",
                fromfile=f"committed {title}", tofile=f"run {title}")))
            differ += 1
    print(f"golden: {len(run) - differ} of {len(run)} tables match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
