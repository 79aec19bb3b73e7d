"""Command-line interface: regenerate paper experiments from a shell.

Examples::

    flattree fig5 --ks 4 8 12
    flattree fig7 --ks 4 6 8 --solver exact
    flattree hybrid --k 8 --fractions 0.25 0.5 0.75
    flattree profile --k 16
    flattree convert --k 8 --mode global-random
    flattree compare --k 8                 # side-by-side topology report
    flattree cost --ks 8 16 24             # section 2.7 bill of materials
    flattree schedule --k 8 --technology mems
    flattree export --k 8 --mode global-random --format dot
    flattree downscale --k 8 --floor 0.5
    flattree monitor --k 4 --pattern alltoall   # link utilization heatmap
    flattree fct --ks 4 --monitor          # utilization across a conversion
    flattree info                          # versions + telemetry sinks
    flattree --telemetry fig5 --ks 4      # spans/metrics JSONL to stderr
    flattree --telemetry=run.jsonl fig5   # ... or to a file
    flattree --telemetry=run.jsonl --trace-malloc fig5  # + mem_peak_kb

Every subcommand prints an aligned text table (the library's equivalent
of the paper's figures) to stdout.  The global ``--telemetry`` flag
(before the subcommand) enables the :mod:`repro.obs` subsystem: JSONL
events stream to stderr or the given path, and a final metrics table is
printed after the subcommand finishes.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__, obs
from repro.core.controller import Controller
from repro.core.conversion import Mode
from repro.core.design import FlatTreeDesign
from repro.core.flattree import FlatTree
from repro.core.profiling import profile_mn
from repro.experiments.fig5_pathlength import run_fig5
from repro.experiments.fig6_pod_pathlength import run_fig6
from repro.experiments.fig7_broadcast import run_fig7
from repro.experiments.fig8_alltoall import run_fig8
from repro.experiments.hybrid import DEFAULT_FRACTIONS, run_hybrid
from repro.topology.clos import fat_tree_params
from repro.topology.stats import server_counts_by_kind


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (console script ``flattree``)."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # Bare ``--telemetry`` would greedily swallow the subcommand name
    # (argparse nargs="?"); normalize it to the explicit stderr form.
    argv = ["--telemetry=-" if tok == "--telemetry" else tok
            for tok in argv]
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    if args.telemetry is None:
        return args.handler(args)
    return _run_with_telemetry(args)


def _run_with_telemetry(args) -> int:
    """Run a handler under an enabled obs subsystem; print the table."""
    sink = (obs.StderrSink() if args.telemetry in ("-", "")
            else obs.FileSink(args.telemetry))
    obs.registry.reset()
    obs.enable(sink, emit_metric_events=True,
               trace_malloc=True if args.trace_malloc else None)
    try:
        with obs.span("cli", command=args.command):
            code = args.handler(args)
        print("\n== telemetry ==")
        print(obs.render_table())
    finally:
        obs.disable()
    return code


def _at_least(minimum, kind=int):
    """argparse ``type=`` for a ``kind`` flag that must be >= ``minimum``."""

    def parse(text: str):
        value = kind(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its messages
    return parse


def _fraction(interval: str):
    """argparse ``type=`` for a float in ``interval``, a sub-interval of
    [0, 1] written as one of ``[0, 1]``, ``[0, 1)``, ``(0, 1)``, ``(0, 1]``."""

    def parse(text: str) -> float:
        value = float(text)
        if not (0 < value < 1 or (value == 0 and interval[0] == "[")
                or (value == 1 and interval[-1] == "]")):
            raise argparse.ArgumentTypeError(
                f"must be in {interval}, got {value}")
        return value

    parse.__name__ = "float"  # argparse names the type in its messages
    return parse


def _even_k(text: str) -> int:
    """argparse ``type=`` for a fat-tree parameter: an even k >= 4."""
    value = int(text)
    if value < 4 or value % 2:
        raise argparse.ArgumentTypeError(
            f"must be an even k >= 4, got {value}")
    return value


_even_k.__name__ = "int"  # argparse names the type in its messages


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flattree",
        description="Flat-tree (HotNets 2016) reproduction experiments",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "--telemetry", nargs="?", const="-", default=None, metavar="PATH",
        help="enable telemetry; JSONL events go to PATH (default: stderr) "
             "and a final metrics table is printed",
    )
    parser.add_argument(
        "--trace-malloc", action="store_true",
        help="with --telemetry: add per-span tracemalloc peak-delta "
             "memory accounting (mem_peak_kb on span events; also "
             f"enabled by {obs.TRACEMALLOC_ENV}=1)",
    )
    sub = parser.add_subparsers(title="experiments", dest="command")

    for name, runner, note in (
        ("fig5", run_fig5, "average path length, entire network"),
        ("fig6", run_fig6, "average path length within Pods"),
        ("fig7", run_fig7, "broadcast/incast throughput"),
        ("fig8", run_fig8, "all-to-all throughput"),
    ):
        p = sub.add_parser(name, help=note)
        p.add_argument("--ks", type=_even_k, nargs="+", default=None,
                       help="fat-tree parameters to sweep")
        p.add_argument("--seed", type=int, default=0)
        if name in ("fig7", "fig8"):
            p.add_argument("--solver", choices=("exact", "approx"),
                           default=None)
        p.set_defaults(handler=_figure_handler(runner, name))

    p = sub.add_parser("hybrid", help="section 3.4 zone-isolation study")
    p.add_argument("--k", type=_even_k, default=None)
    p.add_argument("--fractions", type=_fraction("(0, 1)"), nargs="+",
                   default=list(DEFAULT_FRACTIONS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--solver", choices=("exact", "approx"), default=None)
    p.set_defaults(handler=_hybrid_handler)

    p = sub.add_parser("profile", help="(m, n) profiling sweep (section 2.4)")
    p.add_argument("--k", type=_even_k, required=True)
    p.set_defaults(handler=_profile_handler)

    p = sub.add_parser("convert", help="convert a flat-tree and summarize")
    p.add_argument("--k", type=_even_k, required=True)
    p.add_argument("--mode", choices=[m.value for m in Mode],
                   default=Mode.GLOBAL_RANDOM.value)
    p.set_defaults(handler=_convert_handler)

    p = sub.add_parser("compare",
                       help="side-by-side report of all topologies at one k")
    p.add_argument("--k", type=_even_k, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_compare_handler)

    p = sub.add_parser("cost", help="section 2.7 bill of materials")
    p.add_argument("--ks", type=_even_k, nargs="+", default=[8, 16, 24])
    p.set_defaults(handler=_cost_handler)

    p = sub.add_parser("schedule",
                       help="conversion timing per switching technology")
    p.add_argument("--k", type=_even_k, required=True)
    p.add_argument("--mode", choices=[m.value for m in Mode],
                   default=Mode.GLOBAL_RANDOM.value)
    p.add_argument("--technology", choices=("mems", "mzi", "packet"),
                   default="mems")
    p.add_argument("--max-batch", type=_at_least(1), default=64)
    p.set_defaults(handler=_schedule_handler)

    p = sub.add_parser("export", help="dump a topology (dot/json/edges)")
    p.add_argument("--k", type=_even_k, required=True)
    p.add_argument("--mode", choices=[m.value for m in Mode],
                   default=Mode.CLOS.value)
    p.add_argument("--format", choices=("dot", "json", "edges"),
                   default="dot")
    p.add_argument("--servers", action="store_true",
                   help="include servers in DOT output")
    p.set_defaults(handler=_export_handler)

    p = sub.add_parser("degradation",
                       help="throughput under random link failures")
    p.add_argument("--k", type=_even_k, default=8)
    p.add_argument("--fractions", type=_fraction("[0, 1)"), nargs="+",
                   default=[0.0, 0.05, 0.1, 0.2])
    p.add_argument("--draws", type=_at_least(1), default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_degradation_handler)

    p = sub.add_parser("report",
                       help="regenerate every artifact into one markdown file")
    p.add_argument("--out", default="report.md")
    p.add_argument("--scale", choices=("quick", "standard"),
                   default="quick")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_report_handler)

    p = sub.add_parser("fct",
                       help="flow-level FCT per mode under ksp routing")
    p.add_argument("--ks", type=_even_k, nargs="+", default=[4, 6])
    p.add_argument("--flows", type=_at_least(1), default=24)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--monitor", action="store_true",
                   help="record link utilization across a mid-run "
                        "Clos -> global-random conversion (first k only)")
    p.add_argument("--technology", choices=("mems", "mzi", "packet"),
                   default="mems")
    p.set_defaults(handler=_fct_handler)

    p = sub.add_parser("monitor",
                       help="run a traffic pattern under the network "
                            "monitor; print heatmap + hotspot report")
    p.add_argument("--k", type=_even_k, default=4)
    p.add_argument("--mode", choices=[m.value for m in Mode],
                   default=Mode.CLOS.value)
    p.add_argument("--pattern", choices=("alltoall", "hotspot"),
                   default="alltoall")
    p.add_argument("--flows", type=_at_least(0), default=0,
                   help="cap on flow count (0 = the full pattern)")
    p.add_argument("--interval", type=_at_least(0.0, float), default=0.0,
                   help="sampling interval in simulated seconds "
                        "(0 = every allocation event)")
    p.add_argument("--retention", type=_at_least(1), default=None,
                   help="ring-buffer samples kept per link")
    p.add_argument("--bins", type=_at_least(1), default=12)
    p.add_argument("--top", type=_at_least(1), default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_monitor_handler)

    p = sub.add_parser("chaos",
                       help="fault-injection sweep: conversion resilience "
                            "per fault rate and technology")
    p.add_argument("--k", type=_even_k, default=4)
    p.add_argument("--rates", type=_fraction("[0, 1]"), nargs="+",
                   default=[0.0, 0.05, 0.1, 0.2])
    p.add_argument("--technologies", nargs="+",
                   choices=("mems", "mzi", "packet"),
                   default=["mems", "mzi", "packet"])
    p.add_argument("--trials", type=_at_least(1), default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-batch", type=_at_least(1), default=16)
    p.set_defaults(handler=_chaos_handler)

    p = sub.add_parser("downscale",
                       help="sleep core switches under a throughput floor")
    p.add_argument("--k", type=_even_k, required=True)
    p.add_argument("--floor", type=_fraction("(0, 1]"), default=0.5)
    p.add_argument("--flows", type=_at_least(1), default=8,
                   help="random idle flows to protect")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_downscale_handler)

    p = sub.add_parser("health",
                       help="one-shot fabric health report from a "
                            "recorded telemetry JSONL trace")
    p.add_argument("trace", metavar="TRACE",
                   help="telemetry JSONL file (record one with "
                        "--telemetry=PATH)")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="print the HealthReport as deterministic JSON "
                        "instead of text")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="also write the JSON HealthReport to PATH")
    p.add_argument("--expect", default=None, metavar="RULES",
                   help="comma-separated alert rules the trace must have "
                        "fired, exactly ('' = none); exit 1 on mismatch")
    p.set_defaults(handler=_health_handler)

    p = sub.add_parser("heal",
                       help="closed-loop remediation: replay a telemetry "
                            "trace through the self-healing plane, or run "
                            "the regret/soak harnesses")
    p.add_argument("trace", nargs="?", default=None, metavar="TRACE",
                   help="telemetry JSONL file to replay (omit with "
                        "--regret/--soak)")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="print the remediation ledger as deterministic "
                        "JSON instead of text")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="also write the JSON ledger to PATH")
    p.add_argument("--expect", default=None, metavar="ACTIONS",
                   help="comma-separated action kinds the loop must have "
                        "completed, exactly ('' = none); exit 1 on "
                        "mismatch")
    p.add_argument("--regret", action="store_true",
                   help="run the seeded three-arm fault storm and print "
                        "the MTTR/regret report (exit 1 unless the "
                        "closed loop beats the no-op baseline)")
    p.add_argument("--soak", action="store_true",
                   help="run the flowsim soak: a mid-run leg failure and "
                        "the loop's repair land as TopologyEvents")
    p.add_argument("--k", type=_even_k, default=4,
                   help="fat-tree parameter for --regret/--soak")
    p.add_argument("--seed", type=int, default=7,
                   help="storm/workload seed for --regret/--soak")
    p.add_argument("--duration", type=float, default=12.0,
                   help="--regret: storm horizon in trace seconds")
    p.add_argument("--episodes", type=_at_least(0), default=2,
                   help="--regret: scripted hotspot episodes")
    p.add_argument("--flows", type=_at_least(1), default=24,
                   help="--soak: workload size")
    p.set_defaults(handler=_heal_handler)

    p = sub.add_parser("info",
                       help="package version, dependencies, telemetry sinks")
    p.set_defaults(handler=_info_handler)
    return parser


def _figure_handler(runner, name):
    def handler(args) -> int:
        kwargs = {"ks": args.ks, "seed": args.seed}
        if hasattr(args, "solver"):
            kwargs["solver"] = args.solver
        result = runner(**kwargs)
        print(f"== {result.experiment} ==")
        print(result.table())
        return 0

    return handler


def _hybrid_handler(args) -> int:
    result = run_hybrid(
        k=args.k,
        fractions=tuple(args.fractions),
        seed=args.seed,
        solver=args.solver,
    )
    print(f"== {result.experiment} ==")
    print(result.table())
    return 0


def _profile_handler(args) -> int:
    result = profile_mn(fat_tree_params(args.k))
    print(f"== (m, n) profiling, k={args.k} ==")
    header = f"{'m':>3}  {'n':>3}  {'pattern':>8}  {'APL':>8}  best"
    print(header)
    print("-" * len(header))
    for row in result.as_rows():
        mark = "  <-- minimum" if row["best"] else ""
        print(
            f"{row['m']:>3}  {row['n']:>3}  {row['pattern']:>8}  "
            f"{row['apl']:>8.4f}{mark}"
        )
    for cand in result.skipped:
        print(f"# skipped m={cand.m} n={cand.n}: {cand.reason}")
    return 0


def _health_handler(args) -> int:
    """Replay a telemetry trace through the health plane and judge it.

    Exit codes follow the flatlint convention: 0 = healthy (or the
    ``--expect``-ed alerts fired, exactly), 1 = degraded or expectation
    mismatch, 2 = usage/IO error.
    """
    from pathlib import Path

    from repro import health
    from repro.errors import ReproError

    trace = Path(args.trace)
    if not trace.is_file():
        print(f"health: no trace at {trace}", file=sys.stderr)
        return 2
    aggregator = health.new_aggregator()
    try:
        with trace.open("r", encoding="utf-8") as handle:
            aggregator.replay_lines(handle)
    except (ReproError, OSError) as exc:
        print(f"health: {exc}", file=sys.stderr)
        return 2
    report = health.HealthReport(aggregator)

    if args.out:
        Path(args.out).write_text(report.to_json(), encoding="utf-8")
    print(report.to_json() if args.as_json else report.render_text(),
          end="")

    if args.expect is not None:
        expected = {name.strip() for name in args.expect.split(",")
                    if name.strip()}
        fired = {str(entry["rule"]) for entry in aggregator.log
                 if entry["event"] == "alert_firing"}
        if fired != expected:
            print(
                f"health: expected alerts {sorted(expected)!r}, "
                f"trace fired {sorted(fired)!r}", file=sys.stderr)
            return 1
        return 0
    return 0 if report.healthy else 1


def _heal_handler(args) -> int:
    """Drive the closed-loop remediation plane from the CLI.

    Exit codes follow the flatlint convention: 0 = converged (or the
    ``--expect``-ed actions completed, exactly; or the closed loop
    beat the no-op baseline under ``--regret``), 1 = failed actions /
    expectation mismatch / gate miss, 2 = usage or IO error.
    """
    from pathlib import Path

    from repro import selfheal
    from repro.errors import ReproError

    if args.regret:
        try:
            report = selfheal.run_regret(
                k=args.k, seed=args.seed, duration=args.duration,
                episodes=args.episodes)
        except ReproError as exc:
            print(f"heal: {exc}", file=sys.stderr)
            return 2
        print(report.table())
        if args.out:
            Path(args.out).write_text(report.ledger.to_json(),
                                      encoding="utf-8")
        return 0 if report.closed_beats_noop else 1

    if args.soak:
        from repro.experiments.selfheal_soak import run_selfheal_soak

        try:
            result = run_selfheal_soak(
                k=args.k, flows=args.flows, seed=args.seed)
        except ReproError as exc:
            print(f"heal: {exc}", file=sys.stderr)
            return 2
        print(result.table())
        if args.out:
            Path(args.out).write_text(result.ledger.to_json(),
                                      encoding="utf-8")
        return 0 if result.repaired else 1

    if not args.trace:
        print("heal: TRACE is required unless --regret/--soak",
              file=sys.stderr)
        return 2
    trace = Path(args.trace)
    if not trace.is_file():
        print(f"heal: no trace at {trace}", file=sys.stderr)
        return 2
    try:
        _, engine = selfheal.replay_path(str(trace))
    except ReproError as exc:
        print(f"heal: {exc}", file=sys.stderr)
        return 2

    ledger = engine.ledger
    if args.out:
        Path(args.out).write_text(ledger.to_json(), encoding="utf-8")
    print(ledger.to_json() if args.as_json
          else ledger.render_text() + "\n", end="")
    if args.expect is not None:
        expected = {name.strip() for name in args.expect.split(",")
                    if name.strip()}
        done = set(ledger.succeeded_actions())
        if done != expected:
            print(f"heal: expected actions {sorted(expected)!r}, "
                  f"loop completed {sorted(done)!r}", file=sys.stderr)
            return 1
        return 0
    return 1 if ledger.by_status("failed") else 0


def _info_handler(args) -> int:
    import platform

    import networkx

    print(f"repro {__version__}")
    print(f"python {platform.python_version()} on {platform.system()}")
    print(f"networkx {networkx.__version__}")
    for dep in ("numpy", "scipy"):
        try:
            module = __import__(dep)
            print(f"{dep} {module.__version__}")
        except ImportError:
            print(f"{dep} (not installed)")
    if obs.enabled():
        print(f"telemetry: enabled -> {obs.current_sink().describe()}")
    else:
        print("telemetry: disabled (run with --telemetry[=PATH])")
    from repro.monitor import CAPABILITIES, DEFAULT_INTERVAL, DEFAULT_RETENTION

    interval = ("every event" if DEFAULT_INTERVAL == 0
                else f"{DEFAULT_INTERVAL:g}s")
    print(
        f"monitor: events {'/'.join(CAPABILITIES)} -> telemetry sinks; "
        f"sampling interval {interval}, "
        f"retention {DEFAULT_RETENTION} samples/link "
        f"(flattree monitor --help)"
    )
    from repro.health import default_rules, default_slos

    print(
        f"health: {len(default_rules())} alert rules + "
        f"{len(default_slos())} SLOs over streaming rollups "
        "(flattree health TRACE, docs/health.md)"
    )
    from repro.selfheal import default_policy as selfheal_policy

    print(
        f"selfheal: closed-loop remediation, "
        f"{len(selfheal_policy().rules)} policy rules + anti-flap "
        "guards + deterministic ledger "
        "(flattree heal, docs/robustness.md)"
    )
    try:
        from tools.flatlint import capability_line
    except ImportError:
        # Installed outside a repo checkout: the lint tooling is not
        # on the path, but the library works fine without it.
        print("lint: flatlint unavailable (run from a repo checkout; "
              "see docs/static-analysis.md)")
    else:
        print(f"lint: {capability_line()}")
    print(
        "perf: span-tree profiler + folded-stack export "
        "(python -m tools.perfreport profile/flamegraph), differential "
        "analysis (perfreport diff: span-tree deltas + differential "
        "flamegraphs, docs/performance.md)"
    )
    return 0


def _convert_handler(args) -> int:
    design = FlatTreeDesign.for_fat_tree(args.k)
    controller = Controller(FlatTree(design))
    plan = controller.apply_mode(Mode(args.mode))
    net = controller.network
    print(f"== flat-tree(k={args.k}) -> {args.mode} ==")
    print(f"plan: {plan.summary()}")
    for stage in plan.stages:
        print(f"  - {stage}")
    print(
        f"network: {net.num_switches} switches, {net.num_servers} servers, "
        f"{net.num_cables} cables"
    )
    print(f"servers by switch kind: {server_counts_by_kind(net)}")
    return 0


def _compare_handler(args) -> int:
    from repro.analysis.report import compare_networks
    from repro.core.conversion import convert
    from repro.experiments.common import baseline_networks

    baselines = baseline_networks(args.k, seed=args.seed)
    ft = FlatTree(FlatTreeDesign.for_fat_tree(args.k))
    nets = [
        baselines["fat-tree"],
        convert(ft, Mode.GLOBAL_RANDOM, name="flat-tree[global]"),
        convert(ft, Mode.LOCAL_RANDOM, name="flat-tree[local]"),
        baselines["random graph"],
        baselines["two-stage"],
    ]
    print(f"== topology comparison, k={args.k} ==")
    print(compare_networks(nets, seed=args.seed))
    return 0


def _cost_handler(args) -> int:
    from repro.core.cost import bill_of_materials, relative_cost

    print("== section 2.7 cost analysis ==")
    header = (f"{'k':>3}  {'4-port':>7}  {'6-port':>7}  {'extra cables':>12}  "
              f"{'side bundles':>12}  {'rel. cost':>9}")
    print(header)
    print("-" * len(header))
    for k in args.ks:
        design = FlatTreeDesign.for_fat_tree(k)
        bom = bill_of_materials(design)
        print(
            f"{k:>3}  {bom.four_port_converters:>7}  "
            f"{bom.six_port_converters:>7}  {bom.extra_cables:>12}  "
            f"{bom.side_bundles:>12}  {relative_cost(design):>9.3f}"
        )
    print("# rel. cost assumes a converter port costs 0.1 switch ports")
    return 0


def _schedule_handler(args) -> int:
    controller = Controller(FlatTree(FlatTreeDesign.for_fat_tree(args.k)))
    report = controller.execute_mode(
        Mode(args.mode),
        technology=_technology_by_name(args.technology),
        max_batch=args.max_batch,
    )
    print(f"== conversion schedule, k={args.k} -> {args.mode} ==")
    print(f"plan: {controller.last_plan.summary()}")
    print(f"schedule: {report.schedule.summary()}")
    return 0


def _export_handler(args) -> int:
    from repro.core.conversion import convert
    from repro.topology.export import to_dot, to_edge_list, to_json_dict

    net = convert(FlatTree(FlatTreeDesign.for_fat_tree(args.k)),
                  Mode(args.mode))
    if args.format == "dot":
        print(to_dot(net, include_servers=args.servers))
    elif args.format == "json":
        import json

        print(json.dumps(to_json_dict(net), indent=1, sort_keys=True))
    else:
        print(to_edge_list(net))
    return 0


def _degradation_handler(args) -> int:
    from repro.experiments.degradation import run_degradation

    result = run_degradation(
        k=args.k, fractions=tuple(args.fractions), draws=args.draws,
        seed=args.seed,
    )
    print(f"== {result.experiment} ==")
    print(result.table())
    return 0


def _chaos_handler(args) -> int:
    from repro.experiments.chaos_sweep import run_chaos_sweep

    result = run_chaos_sweep(
        k=args.k,
        rates=tuple(args.rates),
        technologies=tuple(
            _technology_by_name(name) for name in args.technologies
        ),
        trials=args.trials,
        seed=args.seed,
        max_batch=args.max_batch,
    )
    print(
        f"== chaos sweep: conversion resilience, k={result.k}, "
        f"{result.trials} trials/point, seed {result.seed} =="
    )
    print(result.table())
    return 0


def _report_handler(args) -> int:
    from repro.experiments.report import ReportScale, write_report

    scale = (ReportScale.standard() if args.scale == "standard"
             else ReportScale.quick())
    report = write_report(args.out, scale=scale, seed=args.seed)
    print(f"wrote {args.out}: {len(report.results)} experiments at "
          f"scale {scale.name!r}")
    return 0


def _fct_handler(args) -> int:
    from repro.experiments.fct import run_fct

    if args.monitor:
        return _fct_monitor_handler(args)
    result = run_fct(ks=tuple(args.ks), flows=args.flows, seed=args.seed)
    print(f"== {result.experiment} ==")
    print(result.table())
    return 0


def _technology_by_name(name: str):
    from repro.core.reconfigure import (
        MACH_ZEHNDER,
        MEMS_OPTICAL,
        PACKET_CHIP,
    )

    return {"mems": MEMS_OPTICAL, "mzi": MACH_ZEHNDER,
            "packet": PACKET_CHIP}[name]


def _fct_monitor_handler(args) -> int:
    from repro.errors import ReproError
    from repro.experiments.fct import run_fct_monitored
    from repro.monitor import heatmap_table, hotspot_report

    k = args.ks[0]
    try:
        run = run_fct_monitored(
            k=k, flows=args.flows, seed=args.seed,
            technology=_technology_by_name(args.technology),
        )
    except ReproError as exc:
        print(f"fct: {exc}", file=sys.stderr)
        return 2
    print(f"== monitored FCT across a live conversion, k={k} ==")
    print(f"plan: {run.plan_summary}")
    print(f"schedule: {run.schedule.summary()}")
    print(
        f"conversion at t={run.t_convert:.4f}, "
        f"fabric restored at t={run.t_restored:.4f}"
    )
    print(
        f"clos phase: {len(run.before.completed)} flows, "
        f"mean FCT {run.before.mean_fct:.4f}; converted phase: "
        f"{len(run.after.completed)} flows, "
        f"mean FCT {run.after.mean_fct:.4f}"
    )
    print(
        f"disruption: {run.disrupted_fraction:.3f} of in-flight flows "
        f"crossed a blinking link; {run.dark_traffic * 1e3:.4f} "
        f"flow-ms traversed dark links"
    )
    print()
    print(heatmap_table(run.monitor, top=args.flows // 4 or 4))
    print()
    print(hotspot_report(run.monitor))
    return 0


def _monitor_handler(args) -> int:
    import random

    from repro.experiments.fct import hotspot_flows
    from repro.flowsim.simulator import FlowSimulator, FlowSpec
    from repro.monitor import NetworkMonitor, heatmap_table, hotspot_report

    controller = Controller(FlatTree(FlatTreeDesign.for_fat_tree(args.k)))
    controller.apply_mode(Mode(args.mode))
    net = controller.network
    rng = random.Random(args.seed)
    if args.pattern == "alltoall":
        pairs = [(a, b) for a in net.servers() for b in net.servers()
                 if a != b]
        if args.flows and args.flows < len(pairs):
            pairs = rng.sample(pairs, args.flows)
        flows = [FlowSpec(i, a, b, size=1.0)
                 for i, (a, b) in enumerate(pairs)]
    else:
        flows = hotspot_flows(net.num_servers, args.flows or 24, rng)

    kwargs = {"interval": args.interval}
    if args.retention is not None:
        kwargs["retention"] = args.retention
    monitor = NetworkMonitor(net, **kwargs)
    sim = FlowSimulator(net, controller.route, monitor=monitor).run(flows)

    print(f"== network monitor: {args.pattern} on {net.name} "
          f"(k={args.k}) ==")
    print(f"{monitor.describe()}")
    print(
        f"{len(flows)} flows, mean FCT {sim.mean_fct:.4f}, "
        f"makespan {sim.makespan:.4f}"
    )
    print()
    print(heatmap_table(monitor, bins=args.bins, top=args.top))
    print()
    print(hotspot_report(monitor, top=args.top))
    return 0


def _downscale_handler(args) -> int:
    import random

    from repro.core.scaling import downscale_plan
    from repro.mcf.commodities import Commodity
    from repro.topology.fattree import build_fat_tree

    net = build_fat_tree(args.k)
    rng = random.Random(args.seed)
    servers = list(range(net.num_servers))
    workload = []
    while len(workload) < args.flows:
        a, b = rng.sample(servers, 2)
        if net.server_switch(a) != net.server_switch(b):
            workload.append(Commodity(a, b))
    plan = downscale_plan(net, workload,
                          min_throughput_fraction=args.floor)
    print(f"== downscale fat-tree(k={args.k}), floor {args.floor} ==")
    print(plan.summary())
    print(f"baseline {plan.baseline_throughput:.4f} -> "
          f"achieved {plan.achieved_throughput:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
