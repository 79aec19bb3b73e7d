"""Flow-level FCT per operating mode (extension experiment).

The paper's evaluation scores capacity with an optimal-routing LP;
applications experience *flow completion time* under real
(k-shortest-paths) routing.  This experiment runs the fluid flow-level
simulator on a hot-spot-heavy workload in each operating mode and
reports mean FCT — the LP's capacity trends (random graph beats Clos on
skewed traffic) should survive routing realism.  It also exercises the
controller -> routing -> flowsim pipeline end to end, which makes it
the telemetry layer's coverage experiment for the routing and flowsim
metric families (see docs/observability.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.controller import Controller
from repro.core.conversion import Mode
from repro.errors import ReproError
from repro.core.design import FlatTreeDesign
from repro.core.flattree import FlatTree
from repro.core.reconfigure import (
    MEMS_OPTICAL,
    Schedule,
    Technology,
    disruption,
)
from repro.experiments.common import ExperimentResult
from repro.flowsim.simulator import (
    FlowSimulator,
    FlowSpec,
    SimulationResult,
)
from repro.monitor import NetworkMonitor

#: Modes compared; LOCAL_RANDOM adds nothing at small k and slows CI.
FCT_MODES: Tuple[Mode, ...] = (Mode.CLOS, Mode.GLOBAL_RANDOM)


def hotspot_flows(num_servers: int, count: int,
                  rng: random.Random) -> List[FlowSpec]:
    """``count`` unit-size flows: up to half fan out of one hot server
    to distinct destinations, the rest are random server pairs."""
    servers = list(range(num_servers))
    hotspot = rng.choice(servers)
    others = [s for s in servers if s != hotspot]
    specs = []
    for dst in rng.sample(others, min(count // 2, len(others))):
        specs.append(FlowSpec(len(specs), hotspot, dst, size=1.0))
    while len(specs) < count:
        a, b = rng.sample(servers, 2)
        specs.append(FlowSpec(len(specs), a, b, size=1.0))
    return specs


def run_fct(
    ks: Sequence[int] = (4, 6),
    flows: int = 24,
    seed: int = 0,
) -> ExperimentResult:
    """Mean FCT of a hot-spot workload per mode, over fat-tree k."""
    result = ExperimentResult(
        experiment="flow-level FCT under ksp routing (extension)",
        x_label="k",
        y_label="mean FCT (unit-size flows)",
    )
    series = {mode: result.new_series(mode.value) for mode in FCT_MODES}
    for k in ks:
        design = FlatTreeDesign.for_fat_tree(k)
        controller = Controller(FlatTree(design))
        workload = hotspot_flows(
            design.params.num_servers, flows, random.Random(seed)
        )
        for mode, curve in series.items():
            controller.apply_mode(mode)
            simulator = FlowSimulator(controller.network, controller.route)
            sim = simulator.run(list(workload))
            curve.add(k, sim.mean_fct)
    result.notes.append(
        f"{flows} unit-size flows per point, half fanning out of one "
        f"hot-spot server; identical workload replayed per mode"
    )
    return result


@dataclass
class MonitoredConversionRun:
    """Artifacts of an FCT run monitored across a live conversion."""

    monitor: NetworkMonitor
    schedule: Schedule
    plan_summary: str
    t_convert: float
    t_restored: float
    before: SimulationResult
    after: SimulationResult
    dark_traffic: float
    disrupted_fraction: float


def run_fct_monitored(
    k: int = 4,
    flows: int = 24,
    seed: int = 0,
    technology: Technology = MEMS_OPTICAL,
    interval: float = 0.0,
) -> MonitoredConversionRun:
    """FCT run with the network monitor across a mid-run conversion.

    Timeline: the hot-spot workload's first half runs on Clos with a
    :class:`~repro.monitor.NetworkMonitor` sampling every allocation;
    at ``t_convert`` (mid-run of the Clos phase) the controller
    converts to global-random through
    :meth:`~repro.core.controller.Controller.execute_mode`, whose
    pair-atomic batches write their blink windows into the monitor's
    downtime ledger; the second half then runs on the converted fabric,
    arrivals stamped after the conversion completes, with the *same*
    monitor rebound to the new materialization.  The run keeps two
    phases because the ``dark_traffic`` figure measures Clos flows that
    overlap the blink windows: the flow-seconds of in-flight Clos
    traffic that crossed links while they blinked.  So the Clos phase
    runs to completion on its own paths, and the conversion is stamped
    over its tail rather than fed to the simulator as
    :class:`~repro.flowsim.TopologyEvent` changes, which would re-route
    those flows around the dark links.
    """
    if flows < 2:
        raise ReproError("monitored FCT needs at least 2 flows "
                         "(one per conversion phase)")
    design = FlatTreeDesign.for_fat_tree(k)
    controller = Controller(FlatTree(design))
    workload = hotspot_flows(
        design.params.num_servers, flows, random.Random(seed)
    )
    first, second = workload[: flows // 2], workload[flows // 2:]

    monitor = NetworkMonitor(controller.network, interval=interval)
    sim_before = FlowSimulator(
        controller.network, controller.route, monitor=monitor
    ).run(list(first))

    t_convert = 0.5 * sim_before.makespan
    report = controller.execute_mode(
        Mode.GLOBAL_RANDOM, technology=technology, monitor=monitor,
        start=t_convert,
    )
    plan = controller.last_plan

    dark = monitor.dark_traffic(
        (c.path, c.start, c.finish)
        for c in sim_before.completed
        if c.path is not None
    )
    disrupted = disruption(
        plan,
        [(c.spec.flow_id, c.path) for c in sim_before.completed
         if c.path is not None],
    )

    shifted = [
        FlowSpec(spec.flow_id, spec.src_server, spec.dst_server,
                 spec.size, arrival=report.finish + spec.arrival)
        for spec in second
    ]
    sim_after = FlowSimulator(
        controller.network, controller.route, monitor=monitor
    ).run(shifted)

    return MonitoredConversionRun(
        monitor=monitor,
        schedule=report.schedule,
        plan_summary=plan.summary(),
        t_convert=t_convert,
        t_restored=report.finish,
        before=sim_before,
        after=sim_after,
        dark_traffic=dark,
        disrupted_fraction=disrupted,
    )
