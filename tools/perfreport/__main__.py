"""CLI: ``python -m tools.perfreport <command>``, one of:

* ``profile RUN.jsonl`` — reconstruct the span tree of a
  ``--telemetry=RUN.jsonl`` session and print per-name cumulative /
  self time plus the critical path.
* ``flamegraph RUN.jsonl`` — folded stacks (``a;b;c <usec>``) for
  ``flamegraph.pl`` / speedscope, to stdout or ``--out``.
* ``diff BASE.jsonl NEW.jsonl`` — attribute the wall-time delta
  between two telemetry traces per span path
  (``repro.obs.diffprof``).  ``--folded`` writes a differential
  folded-stack file (``stack base_us new_us``) for red/blue flame
  graphs.  Exit 0 clean, 1 when any path grew beyond tolerance, 2
  usage errors — the same convention as ``tools.flatlint``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from . import __version__

try:
    from repro.errors import ReproError
    from repro.obs.perf import Profile
except ImportError:  # standalone checkout (no installed package)
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    from repro.errors import ReproError
    from repro.obs.perf import Profile

from repro.obs import diffprof  # noqa: E402 - after path fix


def _load_profile(path: str) -> Optional[Profile]:
    try:
        profile = Profile.from_jsonl(path)
    except (ReproError, OSError) as exc:
        print(f"perfreport: {exc}", file=sys.stderr)
        return None
    if not profile.roots:
        print(f"perfreport: {path} contains no span events "
              "(record with flattree --telemetry=PATH ...)",
              file=sys.stderr)
        return None
    return profile


def _cmd_profile(args: argparse.Namespace) -> int:
    profile = _load_profile(args.trace)
    if profile is None:
        return 2
    if args.format == "json":
        document = {
            "total_s": profile.total_s,
            "spans": len(profile.nodes),
            "names": [
                {"name": s.name, "calls": s.calls, "cum_s": s.cum_s,
                 "self_s": s.self_s, "mem_peak_kb": s.mem_peak_kb}
                for s in profile.aggregate()
            ],
            "critical_path": [
                {"name": n.name, "span_id": n.span_id, "depth": n.depth,
                 "cum_s": n.duration_s, "self_s": n.self_s}
                for n in profile.critical_path()
            ],
        }
        print(json.dumps(document, indent=1, sort_keys=True))
    else:
        print(profile.render_table(top=args.top))
    return 0


def _cmd_flamegraph(args: argparse.Namespace) -> int:
    profile = _load_profile(args.trace)
    if profile is None:
        return 2
    folded = "\n".join(profile.folded()) + "\n"
    if args.out:
        Path(args.out).write_text(folded, encoding="utf-8")
        print(f"perfreport: wrote {len(profile.nodes)} spans of folded "
              f"stacks to {args.out}")
    else:
        sys.stdout.write(folded)
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    base = _load_profile(args.base)
    new = _load_profile(args.new)
    if base is None or new is None:
        return 2
    diff = diffprof.diff_profiles(
        base, new,
        tolerance=args.tolerance, min_runtime_s=args.min_runtime,
        base_label=Path(args.base).name, new_label=Path(args.new).name)
    if args.folded:
        lines = diffprof.subtract_folded(
            diffprof.parse_folded(base.folded()),
            diffprof.parse_folded(new.folded()))
        Path(args.folded).write_text(
            "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
        print(f"perfreport: wrote {len(lines)} differential folded "
              f"stacks to {args.folded} (render with flamegraph.pl "
              "--negate for red/blue)")
    if args.format == "json":
        print(json.dumps(diffprof.render_json(diff), indent=1,
                         sort_keys=True))
    else:
        print(diffprof.render_text(diff, top=args.top))
    diffprof.emit_diff_event(diff)
    return diff.exit_code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfreport",
        description="Span-tree profiler and two-trace diff "
                    "(docs/performance.md).",
    )
    parser.add_argument(
        "--version", action="version", version=f"perfreport {__version__}")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser(
        "profile", help="span-tree profile of a telemetry JSONL trace")
    p.add_argument("trace", help="JSONL file from flattree --telemetry=PATH")
    p.add_argument("--top", type=int, default=20,
                   help="rows in the per-name table (default 20)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser(
        "flamegraph",
        help="folded-stack export (flamegraph.pl / speedscope)")
    p.add_argument("trace", help="JSONL file from flattree --telemetry=PATH")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write folded stacks here instead of stdout")
    p.set_defaults(handler=_cmd_flamegraph)

    p = sub.add_parser(
        "diff", help="attribute the wall-time delta between two "
                     "telemetry traces per span path")
    p.add_argument("base", help="baseline trace (JSONL)")
    p.add_argument("new", help="candidate trace (JSONL)")
    p.add_argument(
        "--tolerance", type=float, default=diffprof.DEFAULT_TOLERANCE,
        metavar="FRAC",
        help="relative growth tolerated before a path counts as grown "
             f"(default {diffprof.DEFAULT_TOLERANCE})")
    p.add_argument(
        "--min-runtime", type=float,
        default=diffprof.DEFAULT_MIN_RUNTIME_S, metavar="SECONDS",
        help="paths under this on both sides are below-floor, never "
             f"judged (default {diffprof.DEFAULT_MIN_RUNTIME_S})")
    p.add_argument("--folded", default=None, metavar="PATH",
                   help="write differential folded stacks (stack "
                        "base_us new_us) for red/blue flame graphs")
    p.add_argument("--top", type=int, default=30,
                   help="rows in the attribution table (default 30)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_diff)

    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    result: int = args.handler(args)
    return result


if __name__ == "__main__":
    raise SystemExit(main())
