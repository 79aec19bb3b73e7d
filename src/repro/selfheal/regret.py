"""MTTR/regret accounting: the closed loop vs no-op and oracle arms.

:func:`run_regret` replays one seeded fault storm — a chaos-sweep
style script of sustained link hotspots plus a plant failure (an edge
leg dies mid-run) — through three arms over identical tick streams:

``noop``
    Nobody acts.  Hotspots burn until the horizon, the dead leg
    strands its server, alerts stay firing (censored at the horizon).
``closed``
    The :class:`~repro.selfheal.engine.RemediationEngine` drives a
    live :class:`~repro.core.controller.Controller` through a
    :class:`~repro.selfheal.engine.ControllerExecutor`: hotspots
    dissolve into a random-graph conversion, the dead leg heals via
    converter re-programming + KSP fallback.
``oracle``
    Knows the storm script in advance and repairs each incident one
    tick after injection, for free — the unattainable lower bound.

Per arm we report **time-in-alert** (sum of firing→resolved windows,
censored at the horizon), **MTTR** (mean injection→repair latency),
**conversion downtime** (dark-window seconds from the resilient
executor's reports), and **FCT degradation** (mean flow completion
time on the arm's final fabric over a fixed workload, relative to the
pristine Clos).  *Regret* is the closed loop's excess over the oracle
on the two loop-controlled metrics.

Everything is trace-clock driven and seeded — two runs with the same
arguments produce identical reports (and identical ledgers, which
``make heal-smoke`` checks byte-for-byte).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.controller import Controller
from repro.core.design import FlatTreeDesign
from repro.core.failures import FailureSet, Leg
from repro.core.flattree import FlatTree
from repro.core.reconfigure import MEMS_OPTICAL, Technology
from repro.errors import ReproError
from repro.flowsim import FlowSimulator, FlowSpec
from repro.routing.base import Path
from repro.routing.ksp import k_shortest_paths
from repro.selfheal.engine import (
    ControllerExecutor,
    RemediationEngine,
    new_selfheal_aggregator,
)
from repro.selfheal.ledger import RemediationLedger
from repro.selfheal.policy import (
    ACTION_HEAL,
    ACTION_RECONVERT,
    RemediationPolicy,
    default_policy,
)

#: Tick width of the synthetic monitor stream, in trace seconds.
DT = 0.05

ARMS: Tuple[str, ...] = ("noop", "closed", "oracle")


@dataclass
class _Episode:
    """One scripted hotspot: ``link`` runs hot from ``t0`` until repaired."""

    link: str
    t0: float
    repair_end: Optional[float] = None

    def hot(self, t: float) -> bool:
        if t < self.t0:
            return False
        return self.repair_end is None or t < self.repair_end


@dataclass(frozen=True)
class ArmResult:
    """The storm's outcome under one control arm."""

    arm: str
    time_in_alert_s: float
    mttr_s: float
    conversion_downtime_s: float
    fct_ratio: float
    stranded_servers: int
    incidents: int
    repaired: int
    actions: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class RegretReport:
    """Three-arm comparison plus the closed arm's full ledger."""

    k: int
    seed: int
    duration: float
    episodes: int
    arms: Dict[str, ArmResult]
    ledger: RemediationLedger

    @property
    def closed_beats_noop(self) -> bool:
        """The acceptance gate: strictly better MTTR *and* time-in-alert."""
        closed, noop = self.arms["closed"], self.arms["noop"]
        return (closed.mttr_s < noop.mttr_s
                and closed.time_in_alert_s < noop.time_in_alert_s)

    def regret(self) -> Dict[str, float]:
        """Closed-loop excess over the oracle (0 = perfect foresight)."""
        closed, oracle = self.arms["closed"], self.arms["oracle"]
        return {
            "time_in_alert_s": closed.time_in_alert_s
            - oracle.time_in_alert_s,
            "mttr_s": closed.mttr_s - oracle.mttr_s,
        }

    def table(self) -> str:
        lines = [
            f"regret report: k={self.k} seed={self.seed} "
            f"horizon={self.duration:g}s "
            f"({self.episodes} hotspot(s) + 1 leg failure)",
            f"  {'arm':<8} {'alert-s':>9} {'mttr-s':>8} {'conv-dt':>8} "
            f"{'fct-x':>7} {'dark-srv':>8} {'repaired':>8}",
        ]
        for name in ARMS:
            arm = self.arms[name]
            lines.append(
                f"  {arm.arm:<8} {arm.time_in_alert_s:>9.3f} "
                f"{arm.mttr_s:>8.3f} {arm.conversion_downtime_s:>8.3f} "
                f"{arm.fct_ratio:>7.3f} {arm.stranded_servers:>8d} "
                f"{arm.repaired:>4d}/{arm.incidents}")
        reg = self.regret()
        lines.append(
            f"  regret vs oracle: +{reg['time_in_alert_s']:.3f}s in alert, "
            f"+{reg['mttr_s']:.3f}s MTTR")
        lines.append(
            "  closed loop beats no-op: "
            + ("yes" if self.closed_beats_noop else "NO"))
        lines.append(f"  {self.ledger.summary()}")
        return "\n".join(lines)


def ksp_router(net: object) -> Callable[[int, int, int], Path]:
    """A flowsim router over any (possibly degraded) network.

    K-shortest-paths per switch pair, cached, with the flow id picking
    among the candidates — deterministic and mode-agnostic, which is
    what lets one workload run on Clos, converted, and healed fabrics
    alike.
    """
    cache: Dict[Tuple[int, int], List[Path]] = {}

    def route(src_server: int, dst_server: int, flow_id: int) -> Path:
        ssw = net.server_switch(src_server)
        dsw = net.server_switch(dst_server)
        if ssw == dsw:
            return Path((ssw,))
        key = (ssw, dsw)
        paths = cache.get(key)
        if paths is None:
            paths = k_shortest_paths(net, ssw, dsw)
            cache[key] = paths
        if not paths:
            raise ReproError(
                f"no surviving path between switches {ssw} and {dsw}")
        return paths[flow_id % len(paths)]

    return route


def _tick_events(t: float, episodes: List[_Episode]) -> List[dict]:
    """The synthetic monitor batch for one tick (hot + background links)."""
    batch = []
    for ep in episodes:
        batch.append(_link_sample(t, ep.link, 0.97 if ep.hot(t) else 0.08))
    batch.append(_link_sample(t, "bg0->bg1", 0.10))
    batch.append(_link_sample(t, "bg2->bg3", 0.15))
    return batch


def _link_sample(t: float, link: str, utilization: float) -> dict:
    return {"ts": 0.0, "name": "monitor.link_sample", "kind": "link_sample",
            "t": t, "link": link, "value": utilization,
            "utilization": utilization, "rate": utilization,
            "capacity": 1.0, "active_flows": 1}


def _link_down(t: float, link: str) -> dict:
    return {"ts": 0.0, "name": "monitor.link_down", "kind": "link_down",
            "t": t, "link": link, "value": 1}


def _link_up(t: float, link: str, dark_s: float) -> dict:
    return {"ts": 0.0, "name": "monitor.link_up", "kind": "link_up",
            "t": t, "link": link, "value": 1, "dark_s": dark_s}


def _time_in_alert(log: List[dict], horizon: float) -> float:
    """Sum of firing→resolved windows, censored at the horizon."""
    open_at: Dict[str, float] = {}
    total = 0.0
    for entry in log:
        kind = entry.get("event")
        rule = str(entry.get("rule", ""))
        if not rule:
            continue
        t = float(entry.get("t", 0.0))
        if kind == "alert_firing":
            open_at.setdefault(rule, t)
        elif kind == "alert_resolved":
            fired = open_at.pop(rule, None)
            if fired is not None:
                total += max(0.0, t - fired)
    for fired in open_at.values():
        total += max(0.0, horizon - fired)
    return total


def _mean_fct(net: object, flows: List[FlowSpec]) -> float:
    result = FlowSimulator(net, ksp_router(net)).run(flows)
    return result.mean_fct


def _run_arm(arm: str, *, k: int, seed: int, duration: float,
             episodes: int, flows: int, technology: Technology,
             policy: RemediationPolicy) -> Tuple[ArmResult,
                                                 RemediationLedger]:
    ft = FlatTree(FlatTreeDesign.for_fat_tree(k))
    controller = Controller(ft)
    victim = sorted(ft.four_port_ids())[0]
    victim_server = ft.converters[victim].server
    failures = FailureSet.of_legs((victim, Leg.EDGE))
    fault_t = round(0.7 * duration / DT) * DT
    dark_link = f"c{victim}->edge"

    # The storm script: hotspot episodes spread over the first 60% of
    # the horizon, then the leg failure.
    script = [_Episode(link=f"hs{i}a->hs{i}b",
                       t0=round((1.0 + i * 0.45 * duration) / DT) * DT)
              for i in range(episodes)]

    fault_open = [False]  # mutable closure state for failures_at

    agg = new_selfheal_aggregator(eval_every=4)
    engine: Optional[RemediationEngine] = None
    executor: Optional[ControllerExecutor] = None
    if arm == "closed":
        executor = ControllerExecutor(
            controller, technology=technology,
            failures_at=lambda t: failures if fault_open[0] else None)
        engine = RemediationEngine(policy=policy, executor=executor)

    fault_repair_at: Optional[float] = None  # scheduled link_up time
    fault_repaired: Optional[float] = None   # actual link_up time
    ticks = int(round(duration / DT))
    for i in range(ticks + 1):
        t = round(i * DT, 10)
        batch = _tick_events(t, script)
        if t == fault_t:
            fault_open[0] = True
            batch.append(_link_down(t, dark_link))
            if arm == "oracle":
                fault_repair_at = t + DT
        if arm == "oracle":
            for ep in script:
                if ep.repair_end is None and t >= ep.t0:
                    ep.repair_end = t + DT
        if (fault_repair_at is not None and fault_repaired is None
                and t >= fault_repair_at):
            if arm == "oracle":
                controller.recover(failures)
            fault_repaired = t
            fault_open[0] = False
            batch.append(_link_up(t, dark_link, t - fault_t))
        for event in batch:
            agg.consume(event)
        if engine is not None:
            for entry in engine.poll(agg):
                if entry.status != "succeeded":
                    continue
                if entry.action == ACTION_RECONVERT:
                    end = entry.t + max(entry.latency_s, DT)
                    for ep in script:
                        if ep.repair_end is None and entry.t >= ep.t0:
                            ep.repair_end = end
                elif entry.action == ACTION_HEAL and fault_repair_at is None:
                    fault_repair_at = entry.t + max(entry.latency_s, DT)
    agg.finish()
    if engine is not None:
        engine.poll(agg)

    horizon = max(duration, agg.t)
    incidents: List[Tuple[float, Optional[float]]] = [
        (ep.t0, ep.repair_end) for ep in script if ep.t0 <= duration]
    incidents.append((fault_t, fault_repaired))
    repairs = [(inject, repaired) for inject, repaired in incidents
               if repaired is not None]
    mttr_samples = [
        (repaired if repaired is not None else horizon) - inject
        for inject, repaired in incidents]
    mttr = sum(mttr_samples) / len(mttr_samples) if mttr_samples else 0.0

    downtime = 0.0
    actions: Dict[str, int] = {}
    ledger = engine.ledger if engine is not None else RemediationLedger()
    if executor is not None:
        for report in executor.reports:
            downtime += sum(up - down for down, up in report.timeline())
        for entry in ledger.by_status("succeeded"):
            actions[entry.action] = actions.get(entry.action, 0) + 1

    # FCT on the arm's final fabric: the leg stays physically dead in
    # every arm — what differs is whether converters were re-programmed
    # around it (heal) and/or the fabric was converted (reconvert).
    pristine = FlatTree(FlatTreeDesign.for_fat_tree(k)).materialize()
    final = controller.flattree.materialize(failures=failures)
    stranded = ft.params.num_servers - len(list(final.servers()))
    rng = random.Random(seed * 31 + 5)
    candidates = sorted(set(range(ft.params.num_servers)) - {victim_server})
    workload = []
    for fid in range(flows):
        src, dst = rng.sample(candidates, 2)
        workload.append(FlowSpec(fid, src, dst, size=1.0))
    base_fct = _mean_fct(pristine, workload)
    arm_fct = _mean_fct(final, workload)
    fct_ratio = arm_fct / base_fct if base_fct > 0 else 1.0

    return ArmResult(
        arm=arm,
        time_in_alert_s=_time_in_alert(agg.log, horizon),
        mttr_s=mttr,
        conversion_downtime_s=downtime,
        fct_ratio=fct_ratio,
        stranded_servers=stranded,
        incidents=len(incidents),
        repaired=len(repairs),
        actions=actions,
    ), ledger


def run_regret(k: int = 4, seed: int = 7, duration: float = 12.0,
               episodes: int = 2, flows: int = 12,
               technology: Technology = MEMS_OPTICAL,
               policy: Optional[RemediationPolicy] = None) -> RegretReport:
    """Run the three-arm storm and return the comparison report."""
    if k < 4 or k % 2:
        raise ReproError("k must be an even integer >= 4")
    if duration <= 2.0:
        raise ReproError("duration must leave room for the storm (> 2s)")
    pol = policy or default_policy()
    arms: Dict[str, ArmResult] = {}
    ledger = RemediationLedger()
    for arm in ARMS:
        result, arm_ledger = _run_arm(
            arm, k=k, seed=seed, duration=duration, episodes=episodes,
            flows=flows, technology=technology, policy=pol)
        arms[arm] = result
        if arm == "closed":
            ledger = arm_ledger
    return RegretReport(k=k, seed=seed, duration=duration,
                        episodes=episodes, arms=arms, ledger=ledger)
