"""CLI: ``python -m tools.perfreport <command>``, one of:

* ``profile RUN.jsonl`` — reconstruct the span tree of a
  ``--telemetry=RUN.jsonl`` session and print per-name cumulative /
  self time plus the critical path.
* ``flamegraph RUN.jsonl`` — folded stacks (``a;b;c <usec>``) for
  ``flamegraph.pl`` / speedscope, to stdout or ``--out``.
* ``diff [BASE NEW]`` — the pairwise gate: attribute the wall-time
  delta between two recordings per span path / bench
  (``repro.obs.diffprof``); inputs may be telemetry JSONL traces or
  ``BENCH_*.json`` sessions (kinds auto-detected, must match).  With
  no paths it auto-selects the two newest numbered repo-root bench
  sessions (exit 0 with a message when fewer than two exist).  ``--folded`` writes a differential
  folded-stack file (``stack base_us new_us``) for red/blue flame
  graphs.  Exit 0 clean, 1 when any path grew beyond tolerance, 2
  usage errors — the same convention as ``tools.flatlint``.
* ``trend`` — trajectory-aware regression analytics over every
  numbered ``BENCH_*.json`` session
  (``repro.obs.trend``): MAD noise bands over the trailing window,
  step-change detection on the newest point.  Exit 1 on a step-up.
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

from repro.obs import bench as bench_sessions  # noqa: E402 - after path fix
from repro.obs import trend as trend_engine  # noqa: E402 - after path fix


def _auto_select(root: Path) -> Optional[tuple]:
    """The two newest numbered sessions, with explicit id notices.

    Prints which sessions exist (single / none) or were picked, and
    flags sequence gaps — a gapped trajectory usually means a session
    was deleted or recorded elsewhere, which changes what "newest two"
    compares.  Returns ``None`` when fewer than two sessions exist.
    """
    sessions = bench_sessions.session_paths(root)
    if len(sessions) < 2:
        names = ", ".join(p.name for p in sessions) or "none"
        print(f"perfreport: found {len(sessions)} BENCH_<seq>.json "
              f"session(s) under {root} — need two to compare; "
              f"record more with flattree bench (existing: {names})")
        return None
    base_path, new_path = sessions[-2], sessions[-1]
    notice = (f"perfreport: auto-selected {base_path.name} (base) "
              f"vs {new_path.name} (new)")
    seqs = [bench_sessions.session_seq(p) or 0 for p in sessions]
    missing = sorted(set(range(min(seqs), max(seqs) + 1)) - set(seqs))
    if missing:
        gaps = ", ".join(str(n) for n in missing)
        notice += (f" — sequence has gaps (missing seq {gaps}) across "
                   f"{len(sessions)} session(s): "
                   + ", ".join(p.name for p in sessions))
    print(notice)
    return base_path, new_path


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


def _load_recording(path: str) -> Optional[tuple]:
    """(kind, payload) for a diffable recording, else None after a message.

    ``.jsonl`` files are telemetry traces; a JSON document with a
    ``benchmarks`` object is a bench session.
    """
    if path.endswith(".jsonl"):
        profile = _load_profile(path)
        return ("trace", profile) if profile is not None else None
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"perfreport: {path}: {exc}", file=sys.stderr)
        return None
    if not isinstance(raw, dict):
        print(f"perfreport: {path}: expected a JSON object", file=sys.stderr)
        return None
    if "benchmarks" in raw:
        try:
            return "bench", bench_sessions.load_session(Path(path))
        except ReproError as exc:
            print(f"perfreport: {exc}", file=sys.stderr)
            return None
    print(f"perfreport: {path}: neither a BENCH_*.json session nor a "
          ".jsonl telemetry trace", file=sys.stderr)
    return None


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.obs import diffprof

    base_path, new_path = args.base, args.new
    if (base_path is None) != (new_path is None):
        print("perfreport: pass both BASE and NEW, or neither "
              "(auto-selects the two newest BENCH_<seq>.json)",
              file=sys.stderr)
        return 2
    if base_path is None:
        root = Path(args.root) if args.root else bench_sessions.repo_root()
        selected = _auto_select(root)
        if selected is None:
            return 0
        base_path, new_path = str(selected[0]), str(selected[1])
    base_rec = _load_recording(base_path)
    new_rec = _load_recording(new_path)
    if base_rec is None or new_rec is None:
        return 2
    if base_rec[0] != new_rec[0]:
        print(f"perfreport: cannot diff a {base_rec[0]} recording against "
              f"a {new_rec[0]} recording — pass two of the same kind",
              file=sys.stderr)
        return 2
    kind, base, new = base_rec[0], base_rec[1], new_rec[1]
    differ = (diffprof.diff_profiles if kind == "trace"
              else diffprof.diff_bench_sessions)
    diff = differ(
        base, new,
        tolerance=args.tolerance, min_runtime_s=args.min_runtime,
        base_label=Path(base_path).name, new_label=Path(new_path).name)
    if args.folded:
        if kind == "bench":
            print("perfreport: --folded needs stack recordings — bench "
                  "sessions carry no stacks (diff two telemetry traces "
                  "instead)", file=sys.stderr)
            return 2
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


def _cmd_trend(args: argparse.Namespace) -> int:
    root = Path(args.root) if args.root else bench_sessions.repo_root()
    report = trend_engine.analyze_trajectory(
        root, window=args.window, sigmas=args.sigmas,
        rel_floor=args.rel_floor, min_runtime_s=args.min_runtime)
    if args.out:
        Path(args.out).write_text(
            json.dumps(trend_engine.render_json(report), indent=1,
                       sort_keys=True) + "\n", encoding="utf-8")
        print(f"perfreport: wrote trend report to {args.out}")
    if args.format == "json":
        print(json.dumps(trend_engine.render_json(report), indent=1,
                         sort_keys=True))
    elif args.format == "markdown":
        print(trend_engine.render_markdown(report, top=args.top))
    else:
        print(trend_engine.render_text(report, top=args.top))
    trend_engine.emit_trend_event(report)
    return report.exit_code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfreport",
        description="Perf regression gates (diff, trend) + span-tree "
                    "profiler (docs/performance.md).",
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
        "diff", help="pairwise regression gate: attribute the wall-time "
                     "delta between two recordings (traces or "
                     "BENCH_*.json); with no paths, the two newest "
                     "numbered bench sessions")
    p.add_argument("base", nargs="?", default=None,
                   help="baseline recording (default: second-newest "
                        "repo-root BENCH_<seq>.json)")
    p.add_argument("new", nargs="?", default=None,
                   help="candidate recording (default: newest repo-root "
                        "BENCH_<seq>.json)")
    p.add_argument("--root", default=None, metavar="DIR",
                   help="directory searched for BENCH_<seq>.json when "
                        "auto-selecting (default: the repo root)")
    p.add_argument(
        "--tolerance", type=float, default=bench_sessions.DEFAULT_TOLERANCE,
        metavar="FRAC",
        help="relative growth tolerated before a path counts as grown "
             f"(default {bench_sessions.DEFAULT_TOLERANCE})")
    p.add_argument(
        "--min-runtime", type=float,
        default=bench_sessions.DEFAULT_MIN_RUNTIME_S, metavar="SECONDS",
        help="paths under this on both sides are below-floor, never "
             f"judged (default {bench_sessions.DEFAULT_MIN_RUNTIME_S})")
    p.add_argument("--folded", default=None, metavar="PATH",
                   help="write differential folded stacks (stack "
                        "base_us new_us) for red/blue flame graphs; "
                        "traces only")
    p.add_argument("--top", type=int, default=30,
                   help="rows in the attribution table (default 30)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_diff)

    p = sub.add_parser(
        "trend", help="trajectory-aware regression analytics over every "
                      "numbered BENCH_* session")
    p.add_argument("--root", default=None, metavar="DIR",
                   help="directory scanned for numbered sessions "
                        "(default: the repo root)")
    p.add_argument("--window", type=int, default=trend_engine.DEFAULT_WINDOW,
                   help="trailing sessions the noise model is fitted to "
                        f"(default {trend_engine.DEFAULT_WINDOW})")
    p.add_argument("--sigmas", type=float, default=trend_engine.DEFAULT_SIGMAS,
                   help="band half-width in robust (MAD-derived) sigmas "
                        f"(default {trend_engine.DEFAULT_SIGMAS})")
    p.add_argument(
        "--rel-floor", type=float, default=bench_sessions.DEFAULT_TOLERANCE,
        metavar="FRAC",
        help="relative band floor so near-constant series keep a "
             f"tolerance (default {bench_sessions.DEFAULT_TOLERANCE})")
    p.add_argument(
        "--min-runtime", type=float,
        default=bench_sessions.DEFAULT_MIN_RUNTIME_S, metavar="SECONDS",
        help="absolute band floor; sub-floor metrics are never judged "
             f"(default {bench_sessions.DEFAULT_MIN_RUNTIME_S})")
    p.add_argument("--top", type=int, default=40,
                   help="rows in the metric table (default 40)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="also write the JSON report here (CI artifact)")
    p.add_argument("--format", choices=("text", "json", "markdown"),
                   default="text")
    p.set_defaults(handler=_cmd_trend)

    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    result: int = args.handler(args)
    return result


if __name__ == "__main__":
    raise SystemExit(main())
