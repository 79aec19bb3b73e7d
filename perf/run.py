"""Benchmark of the flat-tree plant: one workload per invocation.

Run from the repository root::

    python3 perf/run.py --workload fig8_lp --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
BENCHMARK.json with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  Progress and a readable summary go to standard error.

Other modes::

    python3 perf/run.py --write-reference [WORKLOAD ...]  # perf/reference.json
    python3 perf/run.py --compare A.jsonl B.jsonl   # two sets of runs

``--record FILE`` appends each run's result to a JSON-lines set that
``--compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

# One thread for the numeric libraries; set before anything imports them.
os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCE_PATH = PERF / "reference.json"
TRACE_DIR = PERF / ".perf_out"

#: Fresh processes timed from start to ready; the first is a warm-up.
SETUP_PROBES = 4
SETUP_TIMEOUT_S = 60
#: Failed checks printed per run; the rest are only counted.
SHOWN_FAILURES = 10
#: Seeds and job counts ``--write-reference`` stores answers for.
REFERENCE_SEEDS = range(11)
REFERENCE_JOBS = {"fig8_lp": 96, "fct_poisson": 20, "reconvert_sdn": 120}


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def load_reference() -> dict:
    if not REFERENCE_PATH.exists():
        return {}
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def import_plant():
    """Import the workloads from this checkout's ``src``, or exit."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perf/run.py: no plant source at {SRC}; "
                 f"run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perf/run.py: imported repro from {repro.__file__}, "
                 f"not from {SRC}")
    import workloads

    return workloads


def probe_setup(workload: str, seed: int) -> float:
    """Median reference seconds from process start to a workload ready.

    Each probe prints the ``time.monotonic()`` at which it was ready;
    on Linux that clock is system-wide, so it compares with ours.  Each
    probe is scaled by the host slowdown calibrated around it.
    """
    from harness import HostClock

    samples = []
    clock = HostClock()
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if done.returncode:
            sys.exit(f"perf/run.py: set-up probe failed:\n{done.stderr}")
        ready = float(done.stdout.split()[-1]) - start
        samples.append(ready / clock.settle())
    return statistics.median(samples[1:])


def result_of(run, spec: dict, trace: bool,
              setup_s: Optional[float] = None) -> dict:
    """The printed result: the spec's metrics for this mode, by name."""
    from harness import job_time

    if not run.untraced:
        sys.exit("perf/run.py: no untraced job completed")
    if trace:
        values, wanted = run.layers, spec["per_layer"]
    else:
        values = {"job_s": job_time(run.untraced), "setup_s": setup_s,
                  "peak_rss_mb": run.peak_rss_mb,
                  "solution_ratio": run.solution_ratio}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def measure(args: argparse.Namespace, workloads) -> dict:
    """One run of one workload: the result object the last line prints."""
    from harness import closed_loop, tail_percentiles

    setup_s = None if args.trace else probe_setup(args.workload, args.seed)
    workload = workloads.WORKLOADS[args.workload](args.seed, load_reference())
    trace_path = (TRACE_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
                  if args.trace else None)
    run = closed_loop(workload, args.seconds, bool(args.trace), trace_path)
    result = result_of(run, load_spec(), bool(args.trace), setup_s)

    for mode, by_kind in (("untraced", run.untraced), ("traced", run.traced),
                          ("untraced, as measured", run.raw)):
        for kind, times in sorted(by_kind.items()):
            print(f"{args.workload} seed {args.seed} {mode} kind {kind}: "
                  f"{len(times)} jobs, median {statistics.median(times):.4f}s "
                  f"{tail_percentiles(times)}", file=sys.stderr)
    print(f"host slowdown: median {statistics.median(run.slowdowns):.3f}, "
          f"range {min(run.slowdowns):.3f}-{max(run.slowdowns):.3f}",
          file=sys.stderr)
    print(f"{run.attempted} ops attempted, {run.failed} failed",
          file=sys.stderr)
    if getattr(workload, "routes_changed", 0):
        print(f"routes_changed: {workload.routes_changed} jobs chose other "
              f"paths than the reference; checked invariants only",
              file=sys.stderr)
    for failure in run.failures[:SHOWN_FAILURES]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}",
              file=sys.stderr)
    return result


def write_reference(workloads, names: list) -> None:
    """Store exact answers per seed and job, and the FPTAS optimum.

    Only the entries of ``names`` (all workloads when empty) are
    rewritten; the others are kept as they are.
    """
    reference = load_reference()
    for name in names or workloads.WORKLOADS:
        cls = workloads.WORKLOADS[name]
        if name == "fptas_a2a":
            workload = cls(0)
            reference[name] = {"config": workload.config(),
                               "lambda_star": workload.exact_lambda()}
            continue
        seeds = {}
        for seed in REFERENCE_SEEDS:
            workload = cls(seed)
            answers = []
            for job in range(REFERENCE_JOBS[name]):
                inputs = workload.inputs(job)
                output = workload.run(inputs)
                failures = workload.check(job, inputs, output)
                if failures:
                    sys.exit(f"{name} seed {seed}: {failures[0]}")
                answers.append(workload.record(inputs, output))
            seeds[str(seed)] = answers
            print(f"{name} seed {seed}: {len(answers)} jobs", file=sys.stderr)
        reference[name] = {"config": cls(0).config(), "seeds": seeds}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


def read_set(path: str) -> dict:
    """``{(workload, metric): [values]}`` from a JSON-lines set of runs.

    Each run also contributes its ``fail_ratio``, failed / attempted.
    """
    values: dict = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                run = json.loads(line)
                found = {name: metric["value"]
                         for name, metric in run["metrics"].items()}
                found["fail_ratio"] = run["failed"] / run["attempted"]
                for name, value in found.items():
                    values.setdefault((run["workload"], name), []).append(value)
    return values


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(path_a: str, path_b: str) -> int:
    """Print both sets per (workload, metric); 1 if a bound is exceeded.

    Any change of ``fail_ratio`` exceeds its bound.
    """
    bounds = {m["name"]: m for m in load_spec()["end_to_end"]}
    bounds["fail_ratio"] = {"bound": 0.0, "better": "lower"}
    set_a, set_b = read_set(path_a), read_set(path_b)
    status = 0
    print(f"{'workload':14s} {'metric':34s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'change':>8s}")
    for key in sorted(set(set_a) | set(set_b)):
        if key not in set_a or key not in set_b:
            print(f"{key[0]:14s} {key[1]:34s} only in one set")
            status = 1
            continue
        (a1, a2, a3), (b1, b2, b3) = quartiles(set_a[key]), quartiles(set_b[key])
        change = (b2 - a2) / abs(a2) if a2 else (0.0 if b2 == a2 else 1.0)
        verdict = ""
        bound = bounds.get(key[1])
        if bound is not None and abs(change) > bound["bound"]:
            worse = change > 0 if bound["better"] == "lower" else change < 0
            verdict = "WORSE" if worse else "BETTER"
            status = 1
        print(f"{key[0]:14s} {key[1]:34s} "
              f"{a2:12.6g} [{a1:.4g}, {a3:.4g}] "
              f"{b2:12.6g} [{b1:.4g}, {b3:.4g}] {change:+8.2%} {verdict}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE")
    parser.add_argument("--write-reference", nargs="*", metavar="WORKLOAD")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    workloads = import_plant()
    if args.write_reference is not None:
        unknown = set(args.write_reference) - set(workloads.WORKLOADS)
        if unknown:
            parser.error(f"no workload {sorted(unknown)}")
        write_reference(workloads, args.write_reference)
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.probe_setup:
        workloads.WORKLOADS[args.workload](args.seed, load_reference())
        print(repr(time.monotonic()))
        return 0
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    result = measure(args, workloads)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(dict(result, workload=args.workload,
                                         seed=args.seed, trace=args.trace))
                         + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
