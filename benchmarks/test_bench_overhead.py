"""Extension bench: the wall-time tax of each harness plane on flowsim.

Every case runs the same hot-spot workload — k=8 flat-tree in
global-random mode, 120 unit flows, half fanning out of one hot
server (``repro.experiments.fct.hotspot_flows``, seed 7) — and
records a baseline series next to an attached one:

* ``monitor`` — a :class:`~repro.monitor.NetworkMonitor` sampling every
  allocation versus the bare simulator.  The monitor is pay-for-use
  (``monitor=None`` fast paths), and when attached it must stay the
  same order of magnitude as the bare event loop: ``monitored <
  5 x bare + 50 ms``.
* ``health`` / ``selfheal`` — differencing two full simulator runs
  cannot resolve a few percent on a noisy box, so these drain the
  monitored run's captured event stream instead
  (:func:`drain_tax`): through ``NullSink().emit`` plus the health
  aggregator's ``consume``, or the same with the self-heal aggregator
  and the :class:`~repro.selfheal.engine.RemediationEngine` polled
  every ``POLL_EVERY`` events, versus ``NullSink().emit`` alone.  The
  attached series is the monitor-only wall time plus that tax.

The last two are gated at ``OVERHEAD_FRACTION`` of their baseline
plus a ``JITTER_FLOOR_S`` absolute floor.  The monitor-only baselines
here measure 50-92 ms (medians 65-73 ms; 2-vCPU Linux VM, Python
3.11), so the floor dominates: the gate admits 16-25 % of the
baseline, not 5 %.  Each table's second note prints the measured
overhead next to the bound actually in force, both as shares of that
run's baseline.
"""

from __future__ import annotations

import random
import time

import pytest
from conftest import show

from repro import health, obs
from repro.core.controller import Controller
from repro.core.conversion import Mode
from repro.core.design import FlatTreeDesign
from repro.core.flattree import FlatTree
from repro.experiments.common import ExperimentResult
from repro.experiments.fct import hotspot_flows
from repro.flowsim.simulator import FlowSimulator
from repro.monitor import NetworkMonitor
from repro.obs.sinks import MemorySink, NullSink
from repro.selfheal.engine import RemediationEngine, new_selfheal_aggregator

BENCH_K = 8
FLOWS = 120
ROUNDS = 5

#: The health and self-heal planes may tax their baseline by
#: at most this fraction, plus a small absolute floor so a millisecond
#: hiccup on a fast run cannot fail the gate spuriously.
OVERHEAD_FRACTION = 0.05
JITTER_FLOOR_S = 0.01

#: Self-heal engine poll cadence, in events: one poll per batch of 64
#: (:func:`repro.selfheal.replay` polls after every event).
POLL_EVERY = 64


def flowsim_run(monitored=False, sink=None):
    """Time one run of the workload; returns (seconds, monitor).

    ``sink`` switches telemetry to emit every event into it for the
    run, then restores the harness's metrics-only session mode.
    """
    design = FlatTreeDesign.for_fat_tree(BENCH_K)
    controller = Controller(FlatTree(design))
    controller.apply_mode(Mode.GLOBAL_RANDOM)
    flows = hotspot_flows(design.params.num_servers, FLOWS,
                          random.Random(7))
    monitor = NetworkMonitor(controller.network) if monitored else None
    simulator = FlowSimulator(controller.network, controller.route,
                              monitor=monitor)
    if sink is not None:
        obs.disable()
        obs.enable(sink, emit_metric_events=True)
    try:
        begin = time.perf_counter()
        simulator.run(flows)
        elapsed = time.perf_counter() - begin
    finally:
        if sink is not None:
            obs.disable()
            obs.enable()
    return elapsed, monitor


def drain_tax(events, attach):
    """Seconds an attached consumer adds to draining *events*.

    ``attach()`` builds a fresh consumer outside the timer and returns
    ``(drain, state)``; ``drain(events)`` pushes the stream through it.
    The baseline pushes the same stream through a bare ``NullSink``;
    both sides are best of ``ROUNDS``.  Returns the tax and the last
    consumer's state.
    """
    emit = NullSink().emit
    forward_times = []
    attached_times = []
    state = None
    for _ in range(ROUNDS):
        begin = time.perf_counter()
        for event in events:
            emit(event)
        forward_times.append(time.perf_counter() - begin)

        drain, state = attach()
        begin = time.perf_counter()
        drain(events)
        attached_times.append(time.perf_counter() - begin)
    return max(0.0, min(attached_times) - min(forward_times)), state


def attach_health():
    aggregator = health.new_aggregator()
    emit = NullSink().emit

    def drain(events):
        for event in events:
            emit(event)
            aggregator.consume(event)
        aggregator.finish()

    return drain, aggregator


def attach_selfheal():
    aggregator = new_selfheal_aggregator()
    engine = RemediationEngine()
    emit = NullSink().emit

    def drain(events):
        for index, event in enumerate(events):
            emit(event)
            aggregator.consume(event)
            if index % POLL_EVERY == 0:
                engine.poll(aggregator)
        aggregator.finish()
        engine.poll(aggregator)

    return drain, (aggregator, engine)


def monitored_drain_tax(attach):
    """(monitor-only seconds, drain tax, consumer state) for one plane."""
    flowsim_run(monitored=True, sink=NullSink())  # warm-up, discarded
    bare = min(flowsim_run(monitored=True, sink=NullSink())[0]
               for _ in range(ROUNDS))
    sink = MemorySink()
    flowsim_run(monitored=True, sink=sink)
    tax, state = drain_tax(sink.events, attach)
    return bare, tax, state


def new_result(title, y_label, baseline, attached, base_label, new_label):
    result = ExperimentResult(experiment=title, x_label="k",
                              y_label=y_label)
    result.new_series(base_label).add(BENCH_K, baseline)
    result.new_series(new_label).add(BENCH_K, attached)
    return result


def run_monitor() -> ExperimentResult:
    bare, _ = flowsim_run()
    monitored, monitor = flowsim_run(monitored=True)
    result = new_result(
        "extension: monitoring-plane overhead (fluid sim)",
        "flowsim wall-clock (s)", bare, monitored, "bare", "monitored")
    result.notes.append(
        f"{FLOWS} flows; monitored run sampled "
        f"{monitor.samples_taken} allocations over "
        f"{len(monitor.series())} links, "
        f"peak utilization {monitor.peak_utilization():.3f}"
    )
    return result


def run_health() -> ExperimentResult:
    bare, tax, aggregator = monitored_drain_tax(attach_health)
    result = new_result(
        "extension: health-plane aggregation overhead", "wall-clock (s)",
        bare, bare + tax, "monitor-only", "health-attached")
    result.notes.append(
        f"{FLOWS} flows, best of {ROUNDS}; aggregator consumed "
        f"{aggregator.events} events over {len(aggregator.links)} links"
    )
    return result


def run_selfheal() -> ExperimentResult:
    bare, tax, (aggregator, engine) = monitored_drain_tax(attach_selfheal)
    result = new_result(
        "extension: self-heal loop overhead", "wall-clock (s)",
        bare, bare + tax, "monitor-only", "selfheal-attached")
    result.notes.append(
        f"best of {ROUNDS}; loop consumed {aggregator.events} events, "
        f"ledgered {len(engine.ledger)} decision(s)"
    )
    return result


CASES = {
    "monitor": run_monitor,
    "health": run_health,
    "selfheal": run_selfheal,
}


def admitted_overhead_s(case: str, baseline: float) -> float:
    """The overhead each case's gate lets through, in seconds.

    Sampling every allocation over every loaded link may cost the
    monitor real work, but it must stay the same order of magnitude as
    the bare event loop (``monitored < 5 x bare + 50 ms``; generous,
    because CI machines are noisy).
    """
    if case == "monitor":
        return baseline * 4 + 0.05
    return baseline * OVERHEAD_FRACTION + JITTER_FLOOR_S


@pytest.mark.parametrize("case", sorted(CASES))
def test_bench_overhead(once, case):
    result = once(CASES[case])
    baseline_series, attached_series = result.series
    baseline = baseline_series.points[BENCH_K]
    overhead = attached_series.points[BENCH_K] - baseline
    admitted = admitted_overhead_s(case, baseline)
    rule = ("monitored < 5x bare + 50 ms" if case == "monitor" else
            f"{OVERHEAD_FRACTION:.0%} + {JITTER_FLOOR_S * 1e3:g} ms floor")
    result.notes.append(
        f"overhead {overhead * 1e3:+.2f} ms = {overhead / baseline:+.1%} "
        f"of {baseline_series.label}; the gate ({rule}) admits "
        f"{admitted / baseline:.1%}"
    )
    show(result)
    if case == "monitor":
        assert overhead < admitted
    else:
        assert overhead <= admitted
