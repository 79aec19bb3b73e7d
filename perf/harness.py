"""Closed-loop measurement of one workload, untraced or traced.

An untraced run gives the end-to-end metrics.  A traced run alternates
untraced and traced jobs: the traced ones record every span in memory
(:class:`repro.obs.MemorySink`) and give the per-layer metrics, and the
two medians give the tracing overhead.

Times are reported in *reference seconds*: a measured time divided by
how much slower than its reference speed the host ran meanwhile (see
:class:`HostClock`).  A shared virtual machine can run 1.7x slower for
minutes at a time; without this, run-to-run spread would hide any
change smaller than that.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

from repro import obs
from repro.obs import MemorySink, Profile, nearest_rank_quantile

#: Span-name prefixes the benchmark itself opens.
BENCH_SPANS = ("layer.", "bench.")
#: Fewest samples a reported tail percentile has beyond it.
MIN_BEYOND = 10
#: Seconds a :func:`calibration_round` takes at the host's reference speed.
ROUND_REFERENCE_S = 0.004
#: Rounds timed back to back between two jobs.
ROUNDS_BETWEEN = 10
#: Seconds between two rounds timed inside a job.  The host's speed
#: swings within a second, so rounds only around a job miss most of it.
ROUND_INTERVAL_S = 0.1
#: The calibration graph: 400 nodes, 6 weighted out-arcs each.
_CAL_RNG = random.Random("calibration")
_CAL_GRAPH = [[(_CAL_RNG.randrange(400), _CAL_RNG.random()) for _ in range(6)]
              for _ in range(400)]


def calibration_round() -> float:
    """Seconds of six pure-Python Dijkstras on a fixed graph, GC off.

    The round uses neither the plant nor numpy, so no change to the
    repository moves it; turning the collector off keeps the plant's
    live objects from being traversed inside it.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    try:
        for source in range(6):
            dist = {source: 0.0}
            heap = [(0.0, source)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for v, w in _CAL_GRAPH[u]:
                    if d + w < dist.get(v, math.inf):
                        dist[v] = d + w
                        heapq.heappush(heap, (d + w, v))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """The host's slowdown around and during each job, from timed rounds.

    Between jobs, :data:`ROUNDS_BETWEEN` rounds run back to back.  While
    a job runs under :meth:`sampling`, an interval timer runs one round
    every :data:`ROUND_INTERVAL_S` from a ``SIGALRM`` handler, so the
    host's fast and slow spells during the job are sampled too; the
    rounds' own time, :attr:`inside_s`, is not the job's.  A job's
    slowdown is the mean round time before, during and after it divided
    by :data:`ROUND_REFERENCE_S`.
    """

    def __init__(self) -> None:
        self._before = self._between()
        self._inside: List[float] = []

    @staticmethod
    def _between() -> List[float]:
        return [calibration_round() for _ in range(ROUNDS_BETWEEN)]

    def _sample(self, signum, frame) -> None:
        self._inside.append(calibration_round())

    @property
    def inside_s(self) -> float:
        """Seconds the rounds timed inside the current job took."""
        return sum(self._inside)

    @contextlib.contextmanager
    def sampling(self) -> Iterator[None]:
        """Time rounds from an interval timer while the body runs."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, ROUND_INTERVAL_S,
                         ROUND_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def settle(self) -> float:
        """The slowdown over the last job; starts timing the next."""
        after = self._between()
        rounds = self._before + self._inside + after
        self._before, self._inside = after, []
        return statistics.fmean(rounds) / ROUND_REFERENCE_S


def tail_percentiles(samples: Sequence[float]) -> Dict[str, float]:
    """Tail percentiles with at least :data:`MIN_BEYOND` samples beyond.

    The rank is the one :func:`repro.obs.nearest_rank_quantile` picks,
    so "beyond" counts the samples ranked above the reported one.
    """
    n = len(samples)
    out = {}
    for label, q in (("p90", 0.90), ("p99", 0.99), ("p999", 0.999)):
        if n - math.ceil(q * n) >= MIN_BEYOND:
            out[label] = nearest_rank_quantile(samples, q)
    return out


def job_time(by_kind: Dict[int, List[float]]) -> float:
    """Seconds of one job: the median of each job kind, summed.

    A workload whose job is one operation has one kind and this is the
    median job time.  Figure 8 has eight LP kinds (one figure point);
    taking each kind's median before summing keeps a stall during one
    LP from moving the whole point.
    """
    return sum(statistics.median(times) for times in by_kind.values())


@dataclass
class RunResult:
    """What one closed-loop run measured and checked.

    ``untraced`` and ``traced`` map a job kind to its job times in
    reference seconds, ``raw`` to its untraced job times as measured.
    ``slowdowns`` holds :func:`host_slowdown` for every job.
    """

    untraced: Dict[int, List[float]] = field(default_factory=dict)
    traced: Dict[int, List[float]] = field(default_factory=dict)
    raw: Dict[int, List[float]] = field(default_factory=dict)
    slowdowns: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    solution_ratio: float = 0.0
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.attempted)


@contextlib.contextmanager
def inner_layer_spans() -> Iterator[None]:
    """Rebind two inner public functions so their calls open layer spans.

    ``FlowSimulator.run`` calls ``max_min_fair_rates`` and
    ``Controller.routes`` calls ``k_shortest_paths`` through their
    modules' globals; only a traced job sees the spanning wrappers.
    """
    import repro.core.controller as controller_module
    import repro.flowsim.simulator as simulator_module

    fair_rates = simulator_module.max_min_fair_rates
    ksp = controller_module.k_shortest_paths

    def traced_fair_rates(net, flows, *args, **kwargs):
        with obs.span("layer.flowsim.max_min_fair_rates", flows=len(flows)):
            return fair_rates(net, flows, *args, **kwargs)

    def traced_ksp(*args, **kwargs):
        with obs.span("layer.routing.k_shortest_paths"):
            return ksp(*args, **kwargs)

    simulator_module.max_min_fair_rates = traced_fair_rates
    controller_module.k_shortest_paths = traced_ksp
    try:
        yield
    finally:
        simulator_module.max_min_fair_rates = fair_rates
        controller_module.k_shortest_paths = ksp


def layer_view(events: Sequence[dict]) -> Profile:
    """The span tree restricted to the benchmark's own spans.

    Library spans nested between two benchmark spans are dropped and
    their children re-parented to the nearest kept ancestor, so a layer
    span's self time excludes exactly the layer calls made inside it.
    """
    spans = {e["span_id"]: e for e in events if e.get("kind") == "span"}

    def kept(span_id) -> bool:
        return spans[span_id]["name"].startswith(BENCH_SPANS)

    view = []
    for span_id, event in spans.items():
        if not kept(span_id):
            continue
        parent = event.get("parent_id")
        while parent is not None and not kept(parent):
            parent = spans[parent].get("parent_id")
        view.append(dict(event, parent_id=parent))
    return Profile.from_events(view)


class LayerTotals:
    """Per-name span accounting summed over the traced jobs."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.cum_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.attrs: Counter = Counter()
        self.events: List[dict] = []

    def add(self, job: int, events: List[dict]) -> None:
        profile = layer_view(events)
        for stats in profile.aggregate():
            self.calls[stats.name] += stats.calls
            self.cum_s[stats.name] += stats.cum_s
            self.self_s[stats.name] += stats.self_s
        for node in profile.walk():
            for key in ("flows", "lp_vars"):
                if key in node.attrs:
                    self.attrs[f"{node.name}.{key}"] += node.attrs[key]
        self.events.extend(dict(e, job=job) for e in events)

    def cum(self, *names: str) -> float:
        return sum(self.cum_s[name] for name in names)

    def count(self, *names: str) -> int:
        return sum(self.calls[name] for name in names)


def closed_loop(workload, seconds: float, trace: bool = False,
                trace_path: Optional[Path] = None) -> RunResult:
    """Run jobs back to back until ``seconds`` of job time are measured.

    A round is one job of every kind.  With ``trace``, every other round
    runs traced, and the run lasts at least one untraced and one traced
    round; without, at least one round.  A job longer than ``seconds``
    (``fptas_a2a``'s) is then measured once per run.  Each job's time is
    turned into reference seconds by a :class:`HostClock`.  Outputs are
    checked after each job, outside the timed region;
    ``workload.finish`` makes the checks that need the whole run.
    """
    result = RunResult()
    totals = LayerTotals()
    obs.registry.reset()
    busy = 0.0
    job = 0
    min_jobs = workload.kinds * (2 if trace else 1)
    clock = HostClock()
    while busy < seconds or job < min_jobs:
        traced = trace and (job // workload.kinds) % 2 == 1
        inputs = workload.inputs(job)
        ops = workload.ops(inputs)
        result.attempted += ops
        sink = MemorySink()
        if traced:
            obs.enable(sink)
        # Rounds inside a traced job would land in its layer spans, so
        # traced jobs are timed against the rounds around them only.
        start = time.perf_counter()
        try:
            with (inner_layer_spans() if traced else clock.sampling()), \
                    obs.span("bench.job", job=job):
                output = workload.run(inputs)
        except Exception:  # a failed job is counted, the loop goes on
            traceback.print_exc(file=sys.stderr)
            output = None
            result.failures += [f"job {job} raised"] * ops
        finally:
            elapsed = time.perf_counter() - start - clock.inside_s
            if traced:
                obs.disable()
        busy += elapsed
        slowdown = clock.settle()
        result.slowdowns.append(slowdown)
        if output is not None:
            kind = job % workload.kinds
            times = result.traced if traced else result.untraced
            times.setdefault(kind, []).append(elapsed / slowdown)
            if traced:
                totals.add(job, sink.events)
            else:
                result.raw.setdefault(kind, []).append(elapsed)
            result.failures += workload.check(job, inputs, output)
        job += 1
    result.peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    result.failures += workload.finish()
    result.solution_ratio = workload.solution_ratio()
    if trace:
        result.layers = layer_metrics(result, totals, workload.input_ratios())
        if trace_path is not None:
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            with open(trace_path, "w", encoding="utf-8") as out:
                for event in totals.events:
                    out.write(json.dumps(event, default=str) + "\n")
    return result


def layer_metrics(result: RunResult, totals: LayerTotals,
                  input_ratios: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of the traced jobs (see perf/README.md)."""
    jobs = max(1, sum(map(len, result.traced.values())))
    wall = totals.cum("bench.job") or 1.0
    counters = obs.registry.snapshot()

    def counter(name: str) -> float:
        """A counter's value, or a histogram's sum."""
        snap = counters.get(name, {})
        return float(snap.get("sum", snap.get("value", 0.0)))

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    build = ("layer.topology.build_fat_tree", "layer.topology.build_two_stage",
             "layer.topology.build_jellyfish_like_fat_tree")
    exact = "layer.mcf.solve_concurrent_exact"
    approx = "layer.mcf.solve_concurrent_approx"
    fair = "layer.flowsim.max_min_fair_rates"
    hits = counter("core.controller.route_cache_hits")
    misses = counter("core.controller.route_cache_misses")
    untraced = job_time(result.untraced)
    traced = job_time(result.traced)
    metrics = {
        "bench.raw_job_s": job_time(result.raw),
        "bench.host_slowdown": statistics.median(result.slowdowns),
        "bench.traced_job_s": traced,
        "bench.span_coverage": 1.0 - per(totals.self_s["bench.job"], wall),
        "bench.trace_overhead_ratio": per(traced, untraced) - 1.0,
        "topology.build.calls": totals.count(*build) / jobs,
        "topology.build.share": totals.cum(*build) / wall,
        "core.convert.share": totals.cum("layer.core.convert") / wall,
        "core.apply_layout.calls": totals.count("layer.core.apply_layout") / jobs,
        "core.apply_layout.share": totals.cum("layer.core.apply_layout") / wall,
        "core.materialize.share": totals.cum("layer.core.network") / wall,
        "core.layout_repeat_ratio": 0.0,
        "routing.route.calls": totals.count("layer.routing.route") / jobs,
        "routing.route.share": totals.cum("layer.routing.route") / wall,
        "routing.route_cache_hit_ratio": per(hits, hits + misses),
        "routing.pair_repeat_ratio": 0.0,
        "routing.ksp.calls":
            totals.count("layer.routing.k_shortest_paths") / jobs,
        "routing.ksp.share":
            totals.cum("layer.routing.k_shortest_paths") / wall,
        "routing.compile_sdn.share":
            totals.cum("layer.routing.compile_sdn") / wall,
        "mcf.build_flow_problem.share":
            totals.cum("layer.mcf.build_flow_problem") / wall,
        "mcf.exact.calls": totals.count(exact) / jobs,
        "mcf.exact.share": totals.cum(exact) / wall,
        "mcf.exact.lp_vars": per(totals.attrs[f"{exact}.lp_vars"],
                                 totals.count(exact)),
        "mcf.exact.ipm_iterations": per(counter("mcf.exact.iterations"),
                                        totals.count(exact)),
        "mcf.approx.calls": totals.count(approx) / jobs,
        "mcf.approx.share": totals.cum(approx) / wall,
        "mcf.approx.phases": per(counter("mcf.approx.phases"),
                                 totals.count(approx)),
        "mcf.approx.dijkstra_calls": per(counter("mcf.approx.dijkstra_calls"),
                                         totals.count(approx)),
        "flowsim.run.share": totals.cum("layer.flowsim.run") / wall,
        "flowsim.run.self_share":
            totals.self_s["layer.flowsim.run"] / wall,
        "flowsim.fairshare.calls": totals.count(fair) / jobs,
        "flowsim.fairshare.share": totals.cum(fair) / wall,
        "flowsim.fairshare.flows_per_call":
            per(totals.attrs[f"{fair}.flows"], totals.count(fair)),
        "flowsim.events": counter("flowsim.events") / jobs,
    }
    metrics.update(input_ratios)
    return metrics
