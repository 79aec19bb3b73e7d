"""The remediation engine: alerts in, guarded repair actions out.

:class:`RemediationEngine` folds the health plane's alert log
(:attr:`HealthAggregator.log`) into pending incidents and, for each
one the :class:`~repro.selfheal.policy.RemediationPolicy` maps to an
action, pushes the action through the guard chain — hysteresis, flap
quarantine, global remediation hold, per-alert cooldown, action-budget
token bucket — before handing it to an :class:`Executor`.  Every
decision lands in the :class:`~repro.selfheal.ledger.RemediationLedger`
*and* on the telemetry bus as a registered ``selfheal.*`` event, each
carrying the cause linkage (alert rule + firing trace time).

Two executors ship:

* :class:`PlanOnlyExecutor` — deterministic simulated latencies, no
  plant.  This is what trace replay (``flattree heal TRACE``) uses:
  the fabric that produced the trace is gone, so the loop *plans* the
  repairs it would have taken.
* :class:`ControllerExecutor` — drives a live
  :class:`~repro.core.controller.Controller`: ``reconvert`` through
  the resilient batch executor (:meth:`Controller.execute_layout`
  with retry/rollback), ``heal`` through
  :meth:`Controller.recover` + the KSP routing fallback.

All timing decisions use the aggregator's **trace clock**, so a
replayed chaos run takes byte-identical decisions (see
``make heal-smoke``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro import obs
from repro.errors import ReproError
from repro.health.aggregate import HealthAggregator, trace_events
from repro.health.rules import RulesEngine, default_rules
from repro.selfheal.guard import CooldownGate, FlapDetector, TokenBucket
from repro.selfheal.ledger import (
    STATUS_FAILED,
    STATUS_PLANNED,
    STATUS_STARTED,
    STATUS_SUCCEEDED,
    STATUS_SUPPRESSED,
    LedgerEntry,
    RemediationLedger,
)
from repro.selfheal.policy import (
    ACTION_BACKOFF,
    ACTION_HEAL,
    ACTION_QUARANTINE,
    ACTION_RECONVERT,
    PLANT_ACTIONS,
    ActionRule,
    RemediationPolicy,
    default_policy,
    selfheal_rules,
)

#: Suppression reasons the engine stamps on ledger entries/events.
SUPPRESS_FLAP = "flap_quarantine"
SUPPRESS_HOLD = "remediation_hold"
SUPPRESS_COOLDOWN = "cooldown"
SUPPRESS_BUDGET = "budget_exhausted"


@dataclass(frozen=True)
class ActionOutcome:
    """What the executor reports back for one attempted action."""

    ok: bool
    latency_s: float = 0.0
    detail: str = ""


class Executor:
    """Interface the engine drives; implementations repair one plant."""

    def perform(self, action: ActionRule, *, rule: str,
                t: float) -> ActionOutcome:
        raise NotImplementedError


class PlanOnlyExecutor(Executor):
    """Plan repairs without a plant (trace replay, dry runs).

    Latencies are the deterministic cost model of the conversion
    technology: a ``reconvert`` is modeled as three resilient batches
    (control round-trip + circuit switching each), a ``heal`` as one,
    and the hold-installing actions are free.
    """

    def __init__(self, technology: object = None) -> None:
        from repro.core.reconfigure import MEMS_OPTICAL
        tech = technology or MEMS_OPTICAL
        step = tech.control_overhead + tech.switch_delay
        self._latency = {
            ACTION_RECONVERT: 3 * step,
            ACTION_HEAL: step,
            ACTION_QUARANTINE: 0.0,
            ACTION_BACKOFF: 0.0,
        }
        self.performed: List[Tuple[str, str, float]] = []

    def perform(self, action: ActionRule, *, rule: str,
                t: float) -> ActionOutcome:
        self.performed.append((action.action, rule, t))
        return ActionOutcome(
            ok=True, latency_s=self._latency[action.action],
            detail="planned (no plant attached)")


class ControllerExecutor(Executor):
    """Drive a live :class:`~repro.core.controller.Controller`.

    ``reconvert`` converts the whole fabric to the action's target
    mode through the resilient executor (chaos-aware, with
    retry/rollback); ``heal`` asks the controller to re-program
    converters around the failure set reported by ``failures_at``
    (a callable of trace time — typically a closure over the active
    :class:`~repro.chaos.ChaosSchedule`).  Execution reports are kept
    on :attr:`reports` so callers can fold conversion downtime into
    the regret accounting.
    """

    def __init__(self, controller: object, *, technology: object = None,
                 chaos: object = None, retry_policy: object = None,
                 failures_at: Optional[Callable[[float], object]] = None,
                 max_batch: int = 64) -> None:
        from repro.core.reconfigure import MEMS_OPTICAL
        self.controller = controller
        self.technology = technology or MEMS_OPTICAL
        self.chaos = chaos
        self.retry_policy = retry_policy
        self.failures_at = failures_at
        self.max_batch = max_batch
        self.reports: List[object] = []
        self.heal_plans: List[object] = []

    def perform(self, action: ActionRule, *, rule: str,
                t: float) -> ActionOutcome:
        if action.action == ACTION_RECONVERT:
            return self._reconvert(action, t)
        if action.action == ACTION_HEAL:
            return self._heal(t)
        # quarantine/backoff only install engine-side holds; nothing
        # touches the plant.
        return ActionOutcome(ok=True, detail="hold installed")

    def _reconvert(self, action: ActionRule, t: float) -> ActionOutcome:
        from repro.core.conversion import Mode
        try:
            mode = Mode(action.mode)
        except ValueError:
            return ActionOutcome(
                ok=False, detail=f"unknown conversion mode {action.mode!r}")
        try:
            report = self.controller.execute_mode(
                mode,
                technology=self.technology,
                chaos=self.chaos,
                policy=self.retry_policy,
                max_batch=self.max_batch,
                start=t,
            )
        except ReproError as exc:
            return ActionOutcome(ok=False, detail=str(exc))
        self.reports.append(report)
        latency = max(0.0, report.total_time)
        if not report.success:
            return ActionOutcome(
                ok=False, latency_s=latency,
                detail=f"conversion aborted at batch {report.aborted_at}")
        return ActionOutcome(ok=True, latency_s=latency,
                             detail=report.summary())

    def _heal(self, t: float) -> ActionOutcome:
        if self.failures_at is None:
            return ActionOutcome(
                ok=False, detail="no failure source wired "
                                 "(ControllerExecutor(failures_at=...))")
        failures = self.failures_at(t)
        if failures is None or failures.is_empty():
            return ActionOutcome(
                ok=True, detail="no active failures (already healed)")
        try:
            plan = self.controller.recover(failures)
        except ReproError as exc:
            return ActionOutcome(ok=False, detail=str(exc))
        self.heal_plans.append(plan)
        step = self.technology.control_overhead + self.technology.switch_delay
        return ActionOutcome(ok=True, latency_s=step, detail=plan.summary())


class RemediationEngine:
    """The closed loop: fold alerts, guard, act, ledger everything."""

    def __init__(self, policy: Optional[RemediationPolicy] = None,
                 executor: Optional[Executor] = None,
                 ledger: Optional[RemediationLedger] = None) -> None:
        self.policy = policy or default_policy()
        self.executor = executor or PlanOnlyExecutor()
        self.ledger = ledger or RemediationLedger()
        self.flaps = FlapDetector(
            oscillations=self.policy.flap_oscillations,
            window_s=self.policy.flap_window_s,
            quarantine_s=self.policy.quarantine_s)
        self.cooldowns = CooldownGate()
        self.bucket = TokenBucket(self.policy.budget_capacity,
                                  self.policy.budget_refill_per_s)
        self._log_idx = 0
        # rule name -> trace time its alert fired (open incidents)
        self._pending: Dict[str, float] = {}
        # rule name -> earliest trace time to reconsider it
        self._retry_at: Dict[str, float] = {}
        self._hold_until = float("-inf")
        self._hold_strikes = 0
        #: The class is public and a caller may poll one engine from
        #: several threads, and everything below :meth:`poll` —
        #: guards, ledger, executor, controller — mutates engine-owned
        #: state.  One lock at this boundary covers the whole cone;
        #: lock order is engine -> aggregator (the aggregator never
        #: calls back into the engine).
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def hold_until(self) -> float:
        """Trace time the global remediation hold lifts (-inf = none)."""
        return self._hold_until

    def poll(self, aggregator: HealthAggregator) -> List[LedgerEntry]:
        """Fold new alert-log entries and act on pending incidents.

        Call this after feeding events to the aggregator (replay does
        it after every event).
        Returns the ledger entries appended by this poll.
        """
        with self._lock:
            log = aggregator.log
            if self._log_idx >= len(log) and not self._pending:
                return []
            while self._log_idx < len(log):
                entry = log[self._log_idx]
                self._log_idx += 1
                kind = entry.get("event")
                rule = str(entry.get("rule", ""))
                if not rule:
                    continue
                t = float(entry.get("t", 0.0))
                if kind == "alert_firing":
                    self.flaps.record_firing(rule, t)
                    self._pending.setdefault(rule, t)
                elif kind == "alert_resolved":
                    # Incident over: the repair (or the fabric) worked,
                    # so the escalation ladder resets.  Oscillation is
                    # the flap detector's job, not the cooldown's.
                    self._pending.pop(rule, None)
                    self._retry_at.pop(rule, None)
                    self.cooldowns.reset(rule)
            now = aggregator.t
            out: List[LedgerEntry] = []
            for rule in sorted(self._pending):
                alert_t = self._pending[rule]
                action = self.policy.for_alert(rule)
                if action is None:
                    continue
                if now - alert_t < self.policy.hysteresis_s:
                    continue  # still inside the observation window
                if now < self._retry_at.get(rule, float("-inf")):
                    continue
                out.extend(self._attempt(action, rule, alert_t, now))
            return out

    # ------------------------------------------------------------------
    def _attempt(self, action: ActionRule, rule: str, alert_t: float,
                 now: float) -> List[LedgerEntry]:
        entries = [self._record(STATUS_PLANNED, action, rule, alert_t, now)]
        suppressed = self._guard(action, rule, now)
        if suppressed is not None:
            reason, retry_at = suppressed
            entries.append(self._record(
                STATUS_SUPPRESSED, action, rule, alert_t, now,
                reason=reason))
            self._retry_at[rule] = retry_at
            return entries
        entries.append(self._record(STATUS_STARTED, action, rule,
                                    alert_t, now))
        try:
            outcome = self.executor.perform(action, rule=rule, t=now)
        except ReproError as exc:
            outcome = ActionOutcome(ok=False, detail=str(exc))
        cooldown = self.cooldowns.arm(
            rule, now, action.cooldown_s, action.backoff_factor,
            action.max_cooldown_s)
        self._retry_at[rule] = now + max(cooldown, self.policy.hysteresis_s)
        if outcome.ok:
            entries.append(self._record(
                STATUS_SUCCEEDED, action, rule, alert_t, now,
                latency_s=outcome.latency_s, detail=outcome.detail))
            self._install_hold(action, now)
        else:
            entries.append(self._record(
                STATUS_FAILED, action, rule, alert_t, now,
                reason=outcome.detail or "executor failure"))
        return entries

    def _guard(self, action: ActionRule, rule: str,
               now: float) -> Optional[Tuple[str, float]]:
        """First guard that vetoes the action: (reason, retry_at)."""
        if self.flaps.is_quarantined(rule, now):
            until = self.flaps.quarantined_until(rule)
            return SUPPRESS_FLAP, float(until if until is not None else now)
        if action.action in PLANT_ACTIONS and now < self._hold_until:
            return SUPPRESS_HOLD, self._hold_until
        if not self.cooldowns.ready(rule, now):
            return SUPPRESS_COOLDOWN, self.cooldowns.ready_at(rule)
        if not self.bucket.take(now):
            return SUPPRESS_BUDGET, self.bucket.next_token_at(now)
        return None

    def _install_hold(self, action: ActionRule, now: float) -> None:
        if action.action == ACTION_QUARANTINE:
            span = min(action.max_cooldown_s * 4,
                       self.policy.quarantine_s
                       * (action.backoff_factor ** self._hold_strikes))
            self._hold_strikes += 1
            self._hold_until = max(self._hold_until, now + span)
        elif action.action == ACTION_BACKOFF:
            self._hold_until = max(self._hold_until,
                                   now + action.cooldown_s)

    def _record(self, status: str, action: ActionRule, rule: str,
                alert_t: float, now: float, reason: str = "",
                latency_s: float = 0.0, detail: str = "") -> LedgerEntry:
        entry = self.ledger.add(
            t=now, status=status, action=action.action, rule=rule,
            alert_t=alert_t, reason=reason, latency_s=latency_s,
            detail=detail)
        if status == STATUS_PLANNED:
            obs.event("selfheal.action_planned", action=action.action,
                      rule=rule, alert_t=alert_t, t=now)
        elif status == STATUS_STARTED:
            obs.event("selfheal.action_started", action=action.action,
                      rule=rule, t=now)
        elif status == STATUS_SUCCEEDED:
            obs.event("selfheal.action_succeeded", action=action.action,
                      rule=rule, latency_s=latency_s, t=now)
        elif status == STATUS_FAILED:
            obs.event("selfheal.action_failed", action=action.action,
                      rule=rule, reason=reason, t=now)
        elif status == STATUS_SUPPRESSED:
            obs.event("selfheal.action_suppressed", action=action.action,
                      rule=rule, reason=reason, t=now)
        return entry


def new_selfheal_aggregator(**kwargs: object) -> HealthAggregator:
    """A :class:`HealthAggregator` wired for the remediation plane.

    Same defaults as :func:`repro.health.new_aggregator` but the rule
    catalog additionally carries the loop's own rules
    (:func:`~repro.selfheal.policy.selfheal_rules`, e.g.
    ``link_failure`` over open dark links).
    """
    kwargs.setdefault(
        "rules", RulesEngine(tuple(default_rules()) + selfheal_rules()))
    return HealthAggregator(**kwargs)  # type: ignore[arg-type]


def replay(lines: Iterable[str],
           policy: Optional[RemediationPolicy] = None,
           executor: Optional[Executor] = None,
           aggregator: Optional[HealthAggregator] = None,
           ) -> Tuple[HealthAggregator, RemediationEngine]:
    """Replay a telemetry JSONL trace through the closed loop.

    Feeds each event to the aggregator and polls the engine after
    every one — same trace, same decisions, byte-identical ledger.
    Lines are read by :func:`~repro.health.aggregate.trace_events`,
    which raises :class:`ReproError` naming any line that is not JSON.
    """
    agg = aggregator or new_selfheal_aggregator()
    engine = RemediationEngine(policy=policy, executor=executor)
    for event in trace_events(lines):
        agg.consume(event)
        engine.poll(agg)
    agg.finish()
    engine.poll(agg)
    return agg, engine


def replay_path(path: str,
                policy: Optional[RemediationPolicy] = None,
                executor: Optional[Executor] = None,
                ) -> Tuple[HealthAggregator, RemediationEngine]:
    """:func:`replay` over a file on disk."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return replay(handle, policy=policy, executor=executor)
    except OSError as exc:
        raise ReproError(f"cannot read trace {path}: {exc}") from exc
