"""repro.selfheal — the closed-loop remediation plane.

The missing arrow in the observe→act diagram: PR-6's health plane
raises alerts, PR-3's resilient executor can repair a fabric, and this
package connects them.  A declarative
:class:`~repro.selfheal.policy.RemediationPolicy` maps alert rules to
repair actions; the :class:`~repro.selfheal.engine.RemediationEngine`
pushes each firing alert through anti-flap guards (hysteresis, flap
quarantine, global hold, per-alert cooldowns, an action-budget token
bucket) before driving a live controller or a plan-only dry run; and
every decision lands in a trace-clock-deterministic
:class:`~repro.selfheal.ledger.RemediationLedger` plus registered
``selfheal.*`` telemetry events with cause-alert linkage.

Surfaces: ``flattree heal`` (replay of a recorded telemetry trace,
``--regret`` three-arm storm report, ``--soak`` flowsim soak),
:func:`repro.selfheal.regret.run_regret`, and
:func:`repro.experiments.selfheal_soak.run_selfheal_soak`.  See
``docs/robustness.md`` ("Self-healing loop").
"""

from repro.selfheal.engine import (
    ActionOutcome,
    ControllerExecutor,
    Executor,
    PlanOnlyExecutor,
    RemediationEngine,
    new_selfheal_aggregator,
    replay,
    replay_path,
)
from repro.selfheal.guard import CooldownGate, FlapDetector, TokenBucket
from repro.selfheal.ledger import (
    LedgerEntry,
    RemediationLedger,
    STATUSES,
)
from repro.selfheal.policy import (
    ACTIONS,
    ActionRule,
    RemediationPolicy,
    default_policy,
    selfheal_rules,
)
from repro.selfheal.regret import ArmResult, RegretReport, run_regret

__all__ = [
    "ACTIONS",
    "ActionOutcome",
    "ActionRule",
    "ArmResult",
    "ControllerExecutor",
    "CooldownGate",
    "Executor",
    "FlapDetector",
    "LedgerEntry",
    "PlanOnlyExecutor",
    "RegretReport",
    "RemediationEngine",
    "RemediationLedger",
    "RemediationPolicy",
    "STATUSES",
    "TokenBucket",
    "default_policy",
    "new_selfheal_aggregator",
    "replay",
    "replay_path",
    "run_regret",
    "selfheal_rules",
]
