"""repro.health — the fabric health plane.

Streaming aggregation over a recorded telemetry trace, declarative
alert rules with hysteresis, SLO error budgets with multi-window
burn-rate alerting, and the rendering surface behind ``flattree
health`` (see ``docs/health.md``).

The way in is :meth:`HealthAggregator.replay_lines`, which replays any
recorded telemetry JSONL (``--telemetry=PATH``): same rollups, same
rules, deterministic (byte-identical :class:`HealthReport` for the
same trace).

The rule and SLO APIs are importable on purpose: the remediation
plane (:mod:`repro.selfheal`) reads :attr:`HealthAggregator.log`
directly rather than scraping CLI output.
"""

from repro.health.aggregate import (
    BASELINE_SAMPLES,
    DEFAULT_ALPHA,
    DEFAULT_EVAL_EVERY,
    DEFAULT_STALE_AFTER,
    DEFAULT_WINDOW,
    EventRollup,
    HealthAggregator,
    LinkRollup,
    MetricRollup,
)
from repro.health.report import HealthReport
from repro.health.rules import (
    AlertRule,
    AlertState,
    RulesEngine,
    default_rules,
    probe_value,
)
from repro.health.slo import Slo, SloTracker, default_slos

__all__ = [
    "AlertRule",
    "AlertState",
    "BASELINE_SAMPLES",
    "DEFAULT_ALPHA",
    "DEFAULT_EVAL_EVERY",
    "DEFAULT_STALE_AFTER",
    "DEFAULT_WINDOW",
    "EventRollup",
    "HealthAggregator",
    "HealthReport",
    "LinkRollup",
    "MetricRollup",
    "RulesEngine",
    "Slo",
    "SloTracker",
    "default_rules",
    "default_slos",
    "new_aggregator",
    "probe_value",
]


def new_aggregator(**kwargs: object) -> HealthAggregator:
    """A :class:`HealthAggregator` wired with the default catalogs."""
    kwargs.setdefault("rules", RulesEngine(default_rules()))
    kwargs.setdefault("slos", default_slos())
    return HealthAggregator(**kwargs)  # type: ignore[arg-type]
