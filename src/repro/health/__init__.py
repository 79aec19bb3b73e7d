"""repro.health — the fabric health plane.

Streaming aggregation over the telemetry bus, declarative alert rules
with hysteresis, SLO error budgets with multi-window burn-rate
alerting, and the rendering surface behind ``flattree health`` (see
``docs/health.md``).

Two ways in:

* **live** — with telemetry enabled, :func:`attach` tees the current
  sink through a :class:`HealthSink`; every wire event keeps flowing
  to the original sink *and* folds into a :class:`HealthAggregator`.
  :func:`detach` restores the original sink and returns the aggregator
  for judgment.
* **offline** — :meth:`HealthAggregator.replay_lines` replays any
  recorded telemetry JSONL; same rollups, same rules, deterministic
  (byte-identical :class:`HealthReport` for the same trace).

The rule and SLO APIs are importable on purpose: the future online
mode controller (ROADMAP item 3) subscribes to
:meth:`RulesEngine.active` directly rather than scraping CLI output.
"""

from repro import obs
from repro.errors import ReproError
from repro.health.aggregate import (
    BASELINE_SAMPLES,
    DEFAULT_ALPHA,
    DEFAULT_EVAL_EVERY,
    DEFAULT_STALE_AFTER,
    DEFAULT_WINDOW,
    EventRollup,
    HealthAggregator,
    HealthSink,
    LinkRollup,
    MetricRollup,
)
from repro.health.report import HealthReport, prometheus_text
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
    "HealthSink",
    "LinkRollup",
    "MetricRollup",
    "RulesEngine",
    "Slo",
    "SloTracker",
    "attach",
    "default_rules",
    "default_slos",
    "detach",
    "new_aggregator",
    "probe_value",
    "prometheus_text",
]


def new_aggregator(**kwargs: object) -> HealthAggregator:
    """A :class:`HealthAggregator` wired with the default catalogs."""
    kwargs.setdefault("rules", RulesEngine(default_rules()))
    kwargs.setdefault("slos", default_slos())
    return HealthAggregator(**kwargs)  # type: ignore[arg-type]


def attach(aggregator: "HealthAggregator | None" = None) -> HealthAggregator:
    """Tee the live telemetry bus into a health aggregator.

    Wraps the current sink in a :class:`HealthSink`; producers keep
    emitting exactly as before.  Telemetry must already be enabled
    (attach to a disabled bus would silently observe nothing), and
    stacking a second health tee is refused.
    """
    if not obs.enabled():
        raise ReproError(
            "telemetry is disabled — obs.enable(...) before health.attach()")
    if isinstance(obs.current_sink(), HealthSink):
        raise ReproError("health plane already attached")
    agg = aggregator if aggregator is not None else new_aggregator()
    obs.install_sink(HealthSink(obs.current_sink(), agg))
    return agg


def detach() -> HealthAggregator:
    """Restore the pre-:func:`attach` sink; finish + return the aggregator."""
    sink = obs.current_sink()
    if not isinstance(sink, HealthSink):
        raise ReproError("health plane is not attached")
    obs.install_sink(sink.inner)
    sink.aggregator.finish()
    return sink.aggregator
