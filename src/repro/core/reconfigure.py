"""Reconfiguration execution: timing and traffic disruption (paper §2.7).

The paper's cost analysis argues converter switches can be realized by
several switching technologies as long as they are software
configurable, and that "flat-tree changes topology infrequently, so it
imposes no rigid restriction on switching delay".  This module makes
those statements quantitative:

* a :class:`Technology` profile captures a realization's per-converter
  switching delay and per-batch control overhead (defaults follow the
  technologies the paper cites: MEMS optical circuit switches,
  integrated Mach-Zehnder interferometers, and commodity packet chips
  with port-forwarding rules);
* :func:`schedule` turns a controller :class:`ReconfigurationPlan` into
  a staged timeline — converters are grouped into batches whose circuits
  can blink together without partitioning the network — and reports the
  total conversion time and the worst single blink window;
* :func:`disruption` estimates how much in-flight traffic a plan
  disturbs: the fraction of a workload's flows whose current path
  crosses a link the plan takes down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import ConfigurationError
from repro.core.controller import ReconfigurationPlan
from repro.core.failures import FailureSet, HealOutcome, heal_report
from repro.routing.base import Path
from repro.topology.elements import Network, SwitchId


@dataclass(frozen=True)
class Technology:
    """A converter-switch realization's timing profile.

    ``switch_delay`` is the per-converter circuit switching time in
    seconds; ``control_overhead`` the per-batch controller round-trip
    (rule push + acknowledgment).
    """

    name: str
    switch_delay: float
    control_overhead: float

    def __post_init__(self) -> None:
        if self.switch_delay < 0 or self.control_overhead < 0:
            raise ConfigurationError("delays must be non-negative")


#: The technologies the paper's §2.7 cites.
MEMS_OPTICAL = Technology("MEMS optical", switch_delay=25e-3,
                          control_overhead=5e-3)
MACH_ZEHNDER = Technology("Mach-Zehnder interferometer",
                          switch_delay=10e-6, control_overhead=5e-3)
PACKET_CHIP = Technology("packet chip port-forwarding",
                         switch_delay=1e-3, control_overhead=10e-3)


@dataclass
class Schedule:
    """A staged execution of a reconfiguration plan.

    ``dark_links`` parallels ``batches``: the physical links that blink
    while batch *i* switches, which :func:`execute` writes into a
    :class:`~repro.monitor.NetworkMonitor` downtime ledger.
    """

    technology: Technology
    batches: List[List] = field(default_factory=list)
    dark_links: List[List[Tuple[SwitchId, SwitchId]]] = field(
        default_factory=list
    )

    @property
    def num_batches(self) -> int:
        return len(self.batches)

    @property
    def total_time(self) -> float:
        """Wall-clock for the whole conversion (batches run serially)."""
        if not self.batches:
            return 0.0
        return self.num_batches * (
            self.technology.control_overhead + self.technology.switch_delay
        )

    @property
    def blink_window(self) -> float:
        """Longest dark period for any single circuit (one batch)."""
        if not self.batches:
            return 0.0
        return self.technology.switch_delay

    def batch_windows(self, start: float = 0.0) -> List[Tuple[float, float]]:
        """The dark interval of every batch, as ``(down_t, up_t)``.

        Batch *i* begins at ``start + i * (control_overhead +
        switch_delay)``; its circuits are dark for exactly
        ``switch_delay`` after the control round-trip commits — the
        per-batch decomposition of :attr:`total_time` and
        :attr:`blink_window`.
        """
        tech = self.technology
        windows: List[Tuple[float, float]] = []
        for index in range(self.num_batches):
            begin = start + index * (tech.control_overhead
                                     + tech.switch_delay)
            down = begin + tech.control_overhead
            windows.append((down, down + tech.switch_delay))
        return windows

    def summary(self) -> str:
        return (
            f"{sum(len(b) for b in self.batches)} converters in "
            f"{self.num_batches} batches via {self.technology.name}: "
            f"total {self.total_time * 1e3:.1f} ms, "
            f"blink {self.blink_window * 1e3:.3f} ms"
        )


def schedule(
    plan: ReconfigurationPlan,
    before: Network,
    technology: Technology = MEMS_OPTICAL,
    max_batch: int = 64,
) -> Schedule:
    """Batch a plan so no batch dark-out disconnects the network.

    Greedy: converters join the current batch as long as removing the
    batch's dark links keeps ``before`` connected (checked on a scratch
    copy); otherwise a new batch starts.  ``max_batch`` caps batch size
    (controller fan-out limits).

    Batching is *pair-atomic*: both ends of a re-programmed side pair
    (``plan.pairs``) land in the same batch, so no intermediate
    configuration ever holds half a pair (which
    :meth:`FlatTree.set_configs` would reject).  A pair counts as two
    converters against ``max_batch`` but is never split, so a batch may
    exceed the cap by one.
    """
    if max_batch < 1:
        raise ConfigurationError("max_batch must be positive")
    converters = sorted(plan.config_changes)
    if not converters:
        return Schedule(technology=technology)
    sched = _build_schedule(plan, before, technology, max_batch,
                            converters)
    obs.incr("core.reconfigure.schedules")
    obs.incr("core.reconfigure.batches", sched.num_batches)
    obs.incr("core.reconfigure.converters_scheduled", len(converters))
    obs.set_gauge("core.reconfigure.last_total_time_s", sched.total_time)
    return sched


def _atomic_units(converters: List, pairs: Sequence[Tuple]) -> List[List]:
    """Group converters into indivisible scheduling units.

    The two ends of a re-programmed pair form one unit, placed at the
    earlier end's position in the sorted order; every other converter
    is its own unit.
    """
    mate: Dict = {}
    for left, right in pairs:
        mate[left] = right
        mate[right] = left
    units: List[List] = []
    seen = set()
    for cid in converters:
        if cid in seen:
            continue
        seen.add(cid)
        other = mate.get(cid)
        if other is None:
            units.append([cid])
        else:
            seen.add(other)
            units.append([cid, other])
    return units


def _build_schedule(
    plan: ReconfigurationPlan,
    before: Network,
    technology: Technology,
    max_batch: int,
    converters: List,
) -> Schedule:
    from repro.topology.stats import is_connected

    dark_by_converter = _links_by_converter(plan)
    units = _atomic_units(converters, plan.pairs)

    batches: List[List] = []
    batch_links: List[List[Tuple[SwitchId, SwitchId]]] = []
    current: List = []
    current_links: List[Tuple[SwitchId, SwitchId]] = []
    scratch = before.copy()
    removed: List[Tuple[SwitchId, SwitchId]] = []
    for unit in units:
        candidate = [link for cid in unit
                     for link in dark_by_converter.get(cid, [])]
        taken: List[Tuple[SwitchId, SwitchId]] = []
        for u, v in candidate:
            if scratch.capacity(u, v) > 0:
                scratch.remove_cable(u, v)
                removed.append((u, v))
                taken.append((u, v))
        if (len(current) + len(unit) > max_batch
                or not is_connected(scratch)):
            # Close the batch, restore scratch, start fresh with unit.
            if current:
                batches.append(current)
                batch_links.append(current_links)
            current = []
            current_links = []
            for u, v in removed:
                scratch.add_cable(u, v)
            removed = []
            taken = []
            for u, v in candidate:
                if scratch.capacity(u, v) > 0:
                    scratch.remove_cable(u, v)
                    removed.append((u, v))
                    taken.append((u, v))
        current.extend(unit)
        current_links.extend(taken)
    if current:
        batches.append(current)
        batch_links.append(current_links)
    return Schedule(technology=technology, batches=batches,
                    dark_links=batch_links)


def _links_by_converter(plan: ReconfigurationPlan) -> Dict:
    """Attribute the plan's removed links to converters, best effort.

    A removed link belongs to a converter when one endpoint is the
    converter's core/agg/edge switch; ambiguous links (shared switches)
    are attributed to the first matching converter — the schedule only
    needs a conservative grouping, not an exact one.
    """
    remaining = list(plan.links_removed)
    out: Dict = {}
    for cid, _change in sorted(plan.config_changes.items()):
        mine = []
        rest = []
        for u, v in remaining:
            if _touches(cid, u) or _touches(cid, v):
                mine.append((u, v))
            else:
                rest.append((u, v))
        remaining = rest
        out[cid] = mine
    return out


def _touches(cid, switch: SwitchId) -> bool:
    if switch.kind in ("edge", "agg"):
        return switch.pod == cid.pod
    return False


@dataclass(frozen=True)
class RetryPolicy:
    """How the executor reacts to converter command faults.

    ``backoff(round_index)`` is the pause before retry round *n*
    (1-based): ``base_backoff * backoff_factor ** (n - 1)``, capped at
    ``max_backoff``.  A converter that faults on its
    ``max_attempts``-th command is declared dead for this conversion
    and its whole batch rolls back.  ``command_timeout`` is the time a
    TIMEOUT fault wastes before the controller gives up on the ACK;
    ``batch_timeout`` (optional) bounds one batch's total command phase
    — exceeding it also rolls the batch back.
    """

    max_attempts: int = 4
    base_backoff: float = 5e-3
    backoff_factor: float = 2.0
    max_backoff: float = 0.1
    command_timeout: float = 10e-3
    batch_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        if self.base_backoff < 0 or self.max_backoff < 0:
            raise ConfigurationError("backoffs must be non-negative")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be >= 1")
        if self.command_timeout < 0:
            raise ConfigurationError("command_timeout must be non-negative")
        if self.batch_timeout is not None and self.batch_timeout <= 0:
            raise ConfigurationError("batch_timeout must be positive")

    def backoff(self, round_index: int) -> float:
        if round_index < 1:
            raise ConfigurationError("retry rounds are 1-based")
        return min(self.max_backoff,
                   self.base_backoff * self.backoff_factor
                   ** (round_index - 1))


@dataclass
class BatchResult:
    """One batch's fate under execution.

    ``attempts`` counts every command issued (first tries included);
    ``retries`` only the re-issues.  ``down_t``/``up_t`` is the dark
    window the batch occupied (for a rolled-back batch: the window it
    *would* have occupied had its commands succeeded).
    """

    index: int
    converters: List
    down_t: float
    up_t: float
    committed: bool
    attempts: int
    retries: int
    rollback_reason: Optional[str] = None


@dataclass
class ExecutionReport:
    """Everything one (possibly chaotic) conversion execution produced.

    ``aborted_at`` is the index of the rolled-back batch (``None`` when
    every batch committed); batches after it never ran, leaving the
    plant on the consistent converted prefix.  ``failures`` is the
    plant-fault set active at ``finish``; ``heal`` the self-recovery
    outcome (``None`` when no plant fault was active); ``network`` the
    final — possibly degraded — logical network; ``problems`` any
    validation findings against it (empty on the clean path, which is
    correct by construction).
    """

    schedule: Schedule
    start: float
    finish: float
    batches: List[BatchResult]
    aborted_at: Optional[int]
    failures: FailureSet
    heal: Optional[HealOutcome]
    network: Network
    problems: List[str]
    connected: bool

    @property
    def success(self) -> bool:
        """True when every planned batch committed."""
        return self.aborted_at is None

    @property
    def total_time(self) -> float:
        return self.finish - self.start

    @property
    def retries(self) -> int:
        return sum(b.retries for b in self.batches)

    @property
    def rolled_back_fraction(self) -> float:
        if not self.schedule.num_batches:
            return 0.0
        rolled = sum(1 for b in self.batches if not b.committed)
        return rolled / self.schedule.num_batches

    def timeline(self) -> List[Tuple[float, float]]:
        """Dark windows of the committed batches, in execution order."""
        return [(b.down_t, b.up_t) for b in self.batches if b.committed]

    def summary(self) -> str:
        state = ("completed" if self.success
                 else f"rolled back at batch {self.aborted_at}")
        healed = ""
        if self.heal is not None:
            healed = (f", healed {len(self.heal.reconfigured)} converters"
                      f" ({len(self.heal.unrecoverable)} unrecoverable)")
        return (
            f"execution {state}: {len(self.batches)} of "
            f"{self.schedule.num_batches} batches in "
            f"{self.total_time * 1e3:.1f} ms, "
            f"{self.retries} retries{healed}"
        )


def execute(
    flattree,
    plan: ReconfigurationPlan,
    before: Network,
    technology: Technology = MEMS_OPTICAL,
    max_batch: int = 64,
    start: float = 0.0,
    chaos=None,
    policy: Optional[RetryPolicy] = None,
    monitor=None,
) -> ExecutionReport:
    """Drive a plan through the plant, surviving injected faults.

    Batches are pair-atomic (see :func:`schedule`) and applied to
    ``flattree`` one by one through :meth:`FlatTree.set_configs`, so
    the plant is always in a pair-consistent state.  Per batch, every
    converter command may fault (``chaos.command_fault``): a TIMEOUT
    costs ``policy.command_timeout``, a NACK is instant, and failed
    converters are retried after a capped exponential backoff.  A
    converter exhausting ``policy.max_attempts`` — or the batch
    exceeding ``policy.batch_timeout`` — rolls the batch back: the
    batch's converters stay on their pre-batch configurations and the
    remaining batches are aborted, leaving the consistent converted
    prefix.  Command faults strike the *command phase*, before circuits
    blink, so a rolled-back batch never darkened a link.

    With ``chaos=None`` (or a null schedule) the fault machinery is
    skipped entirely and the committed timeline is byte-identical to
    :meth:`Schedule.batch_windows` — batch instants are computed from
    the schedule formula plus the accumulated fault delay, which is
    exactly zero on the clean path.

    Plant faults active when the conversion ends trigger
    :func:`~repro.core.failures.heal_report`; the final network is then
    the degraded materialization, re-validated and connectivity-checked.

    ``monitor`` (a :class:`~repro.monitor.NetworkMonitor`) receives the
    downtime ledger of the committed batches: every link a batch blinks
    gets one ``link_down``/``link_up`` window, ``[down_t, up_t]`` —
    parallel cables of one bundle blink together, once per batch — so
    each window equals :attr:`Schedule.blink_window`.  A technology
    with no switching delay records nothing: a ``[t, t]`` window would
    be downtime that never happened.
    """
    from repro.chaos.engine import ChaosClock

    sched = schedule(plan, before, technology=technology,
                     max_batch=max_batch)
    policy = policy or RetryPolicy()
    chaotic = chaos is not None and not chaos.is_null()
    clock = ChaosClock(start)
    step = technology.control_overhead + technology.switch_delay
    configs = flattree.configs()
    results: List[BatchResult] = []
    aborted_at: Optional[int] = None
    extra = 0.0  # fault-induced delay carried across batches

    for index, batch in enumerate(sched.batches):
        begin = start + index * step + extra
        attempts = 0
        retries = 0
        delay = 0.0
        reason: Optional[str] = None
        if chaotic:
            pending = list(batch)
            tries: Dict = {}
            round_index = 1
            while pending and reason is None:
                failed_round: List = []
                for cid in pending:
                    attempt = tries[cid] = tries.get(cid, 0) + 1
                    attempts += 1
                    if attempt > 1:
                        retries += 1
                    fault = chaos.command_fault(cid, attempt)
                    if fault is None:
                        continue
                    if fault.is_timeout:
                        delay += policy.command_timeout
                    obs.event(
                        "core.reconfigure.converter_retry",
                        converter=str(cid),
                        attempt=attempt,
                        batch=index,
                        fault=fault.value,
                        t=begin + delay,
                    )
                    obs.incr("core.reconfigure.converter_retries")
                    if attempt >= policy.max_attempts:
                        reason = (f"converter {cid} exhausted "
                                  f"{policy.max_attempts} attempts "
                                  f"({fault.value})")
                        break
                    failed_round.append(cid)
                else:
                    if failed_round:
                        delay += policy.backoff(round_index)
                        round_index += 1
                        if (policy.batch_timeout is not None
                                and delay > policy.batch_timeout):
                            reason = (f"batch command phase exceeded "
                                      f"{policy.batch_timeout:g}s timeout")
                    pending = failed_round
        down_t = begin + technology.control_overhead + delay
        up_t = down_t + technology.switch_delay
        if reason is not None:
            # Roll back: restore the pre-batch configs on whichever
            # batch members already ACKed (one more control round-trip
            # plus the circuit switch back), then abort the rest.  The
            # restore commands ride the same faulty control channel as
            # the forward ones — a fault *during rollback* stretches
            # the rollback window (timeouts) and is retried in place,
            # so the batch still ends un-committed on the pre-batch
            # configuration and the report stays truthful about every
            # absorbed fault.
            rollback_delay = 0.0
            rollback_faults = 0
            stuck: List = []
            for cid in batch:
                while True:
                    attempt = tries[cid] = tries.get(cid, 0) + 1
                    attempts += 1
                    fault = chaos.command_fault(cid, attempt)
                    if fault is None:
                        break
                    rollback_faults += 1
                    retries += 1
                    if fault.is_timeout:
                        rollback_delay += policy.command_timeout
                    obs.event(
                        "core.reconfigure.converter_retry",
                        converter=str(cid),
                        attempt=attempt,
                        batch=index,
                        fault=fault.value,
                        t=down_t + technology.control_overhead
                        + rollback_delay,
                    )
                    obs.incr("core.reconfigure.converter_retries")
                    if tries[cid] >= 2 * policy.max_attempts:
                        stuck.append(cid)
                        break
            if rollback_faults:
                reason += (f"; rollback absorbed {rollback_faults} "
                           f"command fault(s)")
            if stuck:
                reason += ("; restore unacknowledged on "
                           + ", ".join(str(c) for c in stuck))
            clock.seek(down_t + technology.control_overhead
                       + technology.switch_delay + rollback_delay)
            obs.event(
                "core.reconfigure.batch_rollback",
                batch=index,
                converters=len(batch),
                reason=reason,
                t=clock.now,
            )
            obs.incr("core.reconfigure.batch_rollbacks")
            results.append(BatchResult(
                index=index, converters=list(batch),
                down_t=down_t, up_t=up_t,
                committed=False, attempts=attempts, retries=retries,
                rollback_reason=reason,
            ))
            aborted_at = index
            break
        for cid in batch:
            configs[cid] = plan.config_changes[cid][1]
        flattree.set_configs(configs)
        extra += delay
        clock.seek(up_t)
        if monitor is not None and sched.blink_window > 0:
            unique: Dict[frozenset, Tuple[SwitchId, SwitchId]] = {}
            for link in sched.dark_links[index]:
                unique.setdefault(frozenset(link), link)
            for u, v in unique.values():
                monitor.link_down(down_t, u, v)
            for u, v in unique.values():
                monitor.link_up(up_t, u, v)
        results.append(BatchResult(
            index=index, converters=list(batch),
            down_t=down_t, up_t=up_t,
            committed=True, attempts=attempts, retries=retries,
        ))

    finish = clock.now
    failures = chaos.failures_at(finish) if chaotic else FailureSet()
    heal_outcome = None
    if not failures.is_empty():
        heal_outcome = heal_report(flattree, failures, t=finish)
        if heal_outcome.reconfigured:
            flattree.set_configs(heal_outcome.assignment)
        network = flattree.materialize(failures=failures)
    else:
        network = flattree.materialize()

    if chaotic:
        from repro.topology.stats import is_connected
        from repro.topology.validate import audit as _validate

        problems = list(
            _validate(network, require_connected=False).problems
        )
        connected = is_connected(network)
    else:
        # Clean path: the materialization of a validated configuration
        # assignment — correct by construction, not re-checked.
        problems = []
        connected = True

    obs.incr("core.reconfigure.executes")
    obs.incr("core.reconfigure.executed_batches", len(results))
    return ExecutionReport(
        schedule=sched,
        start=start,
        finish=finish,
        batches=results,
        aborted_at=aborted_at,
        failures=failures,
        heal=heal_outcome,
        network=network,
        problems=problems,
        connected=connected,
    )


def disruption(
    plan: ReconfigurationPlan,
    flows: Sequence[Tuple[int, Path]],
) -> float:
    """Fraction of flows whose path crosses a link the plan takes down.

    ``flows`` is (flow id, current path).  The controller would drain
    exactly these flows before stage 1 commits; the fraction is the
    natural "how disruptive is this conversion" metric.
    """
    if not flows:
        raise ConfigurationError("no flows to assess")
    down = {frozenset(pair) for pair in plan.links_removed}
    hit = 0
    for _fid, path in flows:
        if any(frozenset((u, v)) in down for u, v in path.edges()):
            hit += 1
    return hit / len(flows)
