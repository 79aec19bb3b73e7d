"""Declarative alert rules over health-plane rollups.

A rule names a **probe** (what to measure on the aggregator), a
**threshold**, an optional **clear threshold** (hysteresis), and an
optional **sustained-for** duration in trace seconds.  The engine
drives each rule through the firing lifecycle::

    ok --breach--> pending --sustained--> firing --cleared--> ok
                      \\--recovered--> ok       (emits resolved)
        (emits firing when it promotes)

Firing and resolution are emitted on the telemetry bus as the
contract-registered events ``health.alert_firing`` /
``health.alert_resolved`` (no-ops when telemetry is off) and appended
to the aggregator's :attr:`~repro.health.aggregate.HealthAggregator.log`
either way, so offline replays produce the same judgment trail.

Probes are addressed by name:

==========================  =============================================
``link.hottest_ewma``       EWMA utilization of the hottest *fresh* link
``link.gini``               Gini imbalance over per-link EWMA utilization
``conversion.dark_s``       cumulative conversion downtime (link-seconds)
``conversion.dark_open``    count of links currently dark (down with no
                            matching up yet — open failure windows)
``rollup:<metric>:<stat>``  any metric rollup stat (p50/p90/p99/ewma/
                            last/mean/total/rate_of_change)
``ratio:<metric>``          windowed p99 of *metric* over its own
                            frozen early-trace p99 baseline
``event_count:<name>``      occurrences of a registered one-off event
``event_rate:<name>``       windowed rate (events / trace second)
==========================  =============================================

This module is importable on purpose: build a :class:`RulesEngine`,
hand it to an aggregator that replays a trace, and read
:meth:`RulesEngine.active` instead of parsing CLI output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.health.aggregate import HealthAggregator


@dataclass(frozen=True)
class AlertRule:
    """One declarative alert over an aggregator probe.

    ``comparison`` is ``">"`` (breach when the probe exceeds
    ``threshold``) or ``"<"``; ``clear_threshold`` arms the hysteresis
    band — a firing alert resolves only once the probe crosses *it*
    (default: the threshold itself, i.e. no band); ``for_duration``
    requires the breach to persist that many trace seconds before the
    alert promotes from pending to firing.
    """

    name: str
    probe: str
    threshold: float
    clear_threshold: Optional[float] = None
    for_duration: float = 0.0
    comparison: str = ">"
    severity: str = "warning"
    description: str = ""

    def __post_init__(self) -> None:
        # A non-finite threshold fires always or never, and each firing
        # puts the threshold on the wire, where the telemetry contract
        # admits only finite numbers.
        if not math.isfinite(self.threshold) or (
                self.clear_threshold is not None
                and not math.isfinite(self.clear_threshold)):
            raise ReproError(
                f"rule {self.name!r}: thresholds must be finite")
        if self.comparison not in (">", "<"):
            raise ReproError(
                f"rule {self.name!r}: comparison must be '>' or '<'")
        if self.for_duration < 0:
            raise ReproError(
                f"rule {self.name!r}: for_duration must be >= 0")
        clear = self.clear_threshold
        if clear is not None:
            if self.comparison == ">" and clear > self.threshold:
                raise ReproError(
                    f"rule {self.name!r}: clear_threshold must sit at or "
                    "below the firing threshold for '>' rules")
            if self.comparison == "<" and clear < self.threshold:
                raise ReproError(
                    f"rule {self.name!r}: clear_threshold must sit at or "
                    "above the firing threshold for '<' rules")

    @property
    def clear_at(self) -> float:
        return (self.threshold if self.clear_threshold is None
                else self.clear_threshold)

    def breached(self, value: float) -> bool:
        if math.isnan(value):
            return False
        return value > self.threshold if self.comparison == ">" \
            else value < self.threshold

    def cleared(self, value: float) -> bool:
        """Has the probe crossed back through the hysteresis band?"""
        if math.isnan(value):
            return False
        return value < self.clear_at if self.comparison == ">" \
            else value > self.clear_at


def probe_value(aggregator: "HealthAggregator", probe: str) -> float:
    """Evaluate one probe name against an aggregator (nan = undefined)."""
    return _compile_probe(probe)(aggregator)


#: One compiled probe: aggregator in, probe value out (nan = undefined).
ProbeFn = Callable[["HealthAggregator"], float]

#: Parsed probe cache — probes are evaluated on every rule/SLO
#: evaluation, and re-splitting the same handful of strings each time
#: is measurable against the health plane's 5% overhead bar.
_COMPILED_PROBES: Dict[str, ProbeFn] = {}


def _compile_probe(probe: str) -> ProbeFn:
    """Parse a probe name once into an ``aggregator -> float`` callable."""
    fn = _COMPILED_PROBES.get(probe)
    if fn is not None:
        return fn
    if probe == "link.hottest_ewma":
        fn = lambda agg: agg.hottest_utilization()           # noqa: E731
    elif probe == "link.gini":
        fn = lambda agg: agg.link_gini()                     # noqa: E731
    elif probe == "conversion.dark_s":
        fn = lambda agg: agg.dark_seconds                    # noqa: E731
    elif probe == "conversion.dark_open":
        fn = lambda agg: float(len(agg.dark_open))           # noqa: E731
    elif probe.startswith("rollup:"):
        try:
            _, metric, stat = probe.split(":", 2)
        except ValueError:
            raise ReproError(f"malformed probe {probe!r} "
                             "(want rollup:<metric>:<stat>)") from None
        fn = lambda agg: agg.metric_stat(metric, stat)       # noqa: E731
    elif probe.startswith("ratio:"):
        metric = probe.split(":", 1)[1]
        fn = lambda agg: _baseline_ratio(agg, metric)        # noqa: E731
    elif probe.startswith("event_count:"):
        name = probe.split(":", 1)[1]
        fn = lambda agg: float(agg.event_count(name))        # noqa: E731
    elif probe.startswith("event_rate:"):
        name = probe.split(":", 1)[1]
        fn = lambda agg: agg.event_rate(name)                # noqa: E731
    else:
        raise ReproError(f"unknown probe {probe!r}")
    _COMPILED_PROBES[probe] = fn
    return fn


def _baseline_ratio(aggregator: "HealthAggregator", metric: str) -> float:
    """Windowed p99 over the metric's frozen early-trace p99 baseline.

    Undefined (nan) until :data:`repro.health.aggregate.BASELINE_SAMPLES`
    observations froze the baseline — short traces never trip it.
    """
    rollup = aggregator.metrics.get(metric)
    if rollup is None:
        return math.nan
    baseline = rollup.baseline
    if math.isnan(baseline) or baseline <= 0:
        return math.nan
    return rollup.window.quantile(0.99) / baseline


@dataclass
class AlertState:
    """Mutable lifecycle state the engine keeps per rule."""

    rule: AlertRule
    status: str = "ok"            # ok | pending | firing
    pending_since: float = 0.0
    fired_at: float = 0.0
    value: float = math.nan       # last probe evaluation

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "rule": self.rule.name,
            "probe": self.rule.probe,
            "status": self.status,
            "severity": self.rule.severity,
            "threshold": self.rule.threshold,
            "value": self.value,
        }
        if self.status == "firing":
            out["fired_at"] = self.fired_at
        return out


class RulesEngine:
    """Evaluates a rule set against an aggregator, with hysteresis.

    Drive it via :meth:`evaluate` (the aggregator does this on its
    evaluation cadence); inspect :meth:`active` for currently-firing
    alerts, or read the firing/resolved trail from the aggregator log.
    """

    def __init__(self, rules: Tuple[AlertRule, ...] = ()) -> None:
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            raise ReproError("alert rule names must be unique")
        self.states: Dict[str, AlertState] = {
            r.name: AlertState(rule=r) for r in rules
        }

    def evaluate(self, aggregator: "HealthAggregator") -> None:
        now = aggregator.t
        for state in self.states.values():
            rule = state.rule
            value = probe_value(aggregator, rule.probe)
            state.value = value
            if state.status == "firing":
                if rule.cleared(value):
                    self._resolve(aggregator, state, now, value)
            elif rule.breached(value):
                if state.status == "ok":
                    state.status = "pending"
                    state.pending_since = now
                if now - state.pending_since >= rule.for_duration:
                    self._fire(aggregator, state, now, value)
            else:
                state.status = "ok"

    def _fire(self, aggregator: "HealthAggregator", state: AlertState,
              now: float, value: float) -> None:
        state.status = "firing"
        state.fired_at = now
        rule = state.rule
        aggregator.log.append({
            "event": "alert_firing",
            "rule": rule.name,
            "metric": rule.probe,
            "severity": rule.severity,
            "value": value,
            "threshold": rule.threshold,
            "t": now,
        })
        obs.incr("health.alerts_fired")
        obs.event("health.alert_firing", rule=rule.name, metric=rule.probe,
                  value=value, threshold=rule.threshold, t=now)

    def _resolve(self, aggregator: "HealthAggregator", state: AlertState,
                 now: float, value: float) -> None:
        state.status = "ok"
        rule = state.rule
        fired_for = max(0.0, now - state.fired_at)
        aggregator.log.append({
            "event": "alert_resolved",
            "rule": rule.name,
            "metric": rule.probe,
            "severity": rule.severity,
            "value": value,
            "fired_for": fired_for,
            "t": now,
        })
        obs.incr("health.alerts_resolved")
        obs.event("health.alert_resolved", rule=rule.name,
                  metric=rule.probe, fired_for=fired_for, t=now)

    def active(self) -> List[AlertState]:
        """Currently-firing alerts, stable rule order."""
        return [s for s in sorted(self.states.values(),
                                  key=lambda s: s.rule.name)
                if s.status == "firing"]

    def snapshot(self) -> List[Dict[str, object]]:
        return [s.as_dict() for s in sorted(self.states.values(),
                                            key=lambda s: s.rule.name)]


def default_rules() -> Tuple[AlertRule, ...]:
    """The shipped rule catalog (documented in ``docs/health.md``).

    Thresholds are deliberately conservative: they fire on the
    pathologies the paper's conversion story cares about (a sustained
    hotspot the random-graph modes would dissolve, fabric imbalance,
    a conversion blowing its downtime budget, a retry storm from the
    resilient executor, an FCT-tail regression) without tripping on a
    balanced all-to-all.
    """
    return (
        AlertRule(
            name="link_hotspot",
            probe="link.hottest_ewma",
            threshold=0.9,
            clear_threshold=0.75,
            for_duration=0.5,
            severity="warning",
            description="a fresh link's EWMA utilization ran >90% for "
                        "0.5 simulated seconds (candidate zone for "
                        "random-graph conversion)",
        ),
        AlertRule(
            name="link_imbalance",
            probe="link.gini",
            threshold=0.6,
            clear_threshold=0.5,
            severity="warning",
            description="Gini over per-link EWMA utilization exceeds "
                        "0.6: a few links carry nearly everything",
        ),
        AlertRule(
            name="conversion_downtime",
            probe="conversion.dark_s",
            threshold=0.1,
            severity="critical",
            description="cumulative conversion downtime exceeded the "
                        "100 link-ms budget (never auto-resolves: "
                        "downtime is cumulative)",
        ),
        AlertRule(
            name="retry_storm",
            probe="event_count:core.reconfigure.converter_retry",
            threshold=10,
            severity="critical",
            description="more than 10 converter-command retries in one "
                        "run: the executor is fighting sustained faults",
        ),
        AlertRule(
            name="fct_regression",
            probe="ratio:flowsim.fct_s",
            threshold=1.5,
            clear_threshold=1.2,
            severity="warning",
            description="windowed flowsim FCT p99 rose >1.5x above the "
                        "run's own early baseline",
        ),
    )
