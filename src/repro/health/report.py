"""HealthReport artifact: deterministic JSON and text renderings.

A :class:`HealthReport` freezes one aggregator's judgment — rollups,
alert states and trail, SLO budgets — into a plain dict.  Everything
in it derives from the trace's simulated clock (never wall time), and
the JSON rendering sorts keys and scrubs NaN, so replaying the same
telemetry JSONL twice yields **byte-identical** reports (CI diffs
them; see ``make health-smoke``).
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Dict, List

from repro.obs import scrub_nonfinite

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.health.aggregate import HealthAggregator

#: Schema tag embedded in every report, bumped on breaking changes.
SCHEMA = "flattree.health/1"
#: Hot links included in the report body.
TOP_K = 10


class HealthReport:
    """One aggregator's state, frozen into a renderable artifact."""

    def __init__(self, aggregator: "HealthAggregator",
                 top_k: int = TOP_K) -> None:
        self.aggregator = aggregator
        self.top_k = top_k

    # -- structured ----------------------------------------------------
    def active_alerts(self) -> List[Dict[str, object]]:
        rules = self.aggregator.rules
        if rules is None:
            return []
        return [s.as_dict() for s in rules.active()]  # type: ignore[attr-defined]

    def alert_states(self) -> List[Dict[str, object]]:
        rules = self.aggregator.rules
        if rules is None:
            return []
        return list(rules.snapshot())  # type: ignore[attr-defined]

    def slo_states(self) -> List[Dict[str, object]]:
        return [slo.snapshot()  # type: ignore[attr-defined]
                for slo in self.aggregator.slos]

    @property
    def healthy(self) -> bool:
        """No alert firing and no SLO burning."""
        if self.active_alerts():
            return False
        return not any(s["burning"] for s in self.slo_states())

    def to_dict(self) -> Dict[str, object]:
        agg = self.aggregator
        return {
            "schema": SCHEMA,
            "healthy": self.healthy,
            "trace": {
                "events": agg.events,
                "t_end": agg.t,
                "links": len(agg.links),
                "metrics": len(agg.metrics),
            },
            "links": {
                "gini": agg.link_gini(),
                "fresh": len(agg.fresh_links()),
                "hottest": [r.snapshot() for r in
                            agg.hottest_links(self.top_k)],
            },
            "downtime": {
                "dark_seconds": agg.dark_seconds,
                "blink_windows": agg.blink_windows,
                "open": agg.open_dark_links(),
            },
            "metrics": {name: agg.metrics[name].snapshot()
                        for name in sorted(agg.metrics)},
            "events": {name: agg.event_counts[name].snapshot()
                       for name in sorted(agg.event_counts)},
            "alerts": {
                "states": self.alert_states(),
                "active": [str(a["rule"]) for a in self.active_alerts()],
            },
            "slos": self.slo_states(),
            "log": list(agg.log),
        }

    def to_json(self) -> str:
        return json.dumps(scrub_nonfinite(self.to_dict()), sort_keys=True,
                          indent=2) + "\n"

    # -- human ---------------------------------------------------------
    def render_text(self) -> str:
        agg = self.aggregator
        lines = [
            f"flattree health — {agg.events} events, t={agg.t:g}s, "
            f"{len(agg.links)} links, {len(agg.metrics)} metric rollups",
            f"status: {'HEALTHY' if self.healthy else 'DEGRADED'}",
        ]
        active = self.active_alerts()
        lines.append(f"alerts firing: {len(active)}")
        for alert in active:
            lines.append(
                f"  [{alert['severity']}] {alert['rule']}: "
                f"{alert['probe']} = {_num(alert['value'])} "
                f"(threshold {_num(alert['threshold'])}, "
                f"since t={_num(alert.get('fired_at', 0.0))})"
            )
        for entry in agg.log:
            lines.append(f"  log: {entry['event']} "
                         f"{entry.get('rule', entry.get('slo'))} "
                         f"@t={_num(entry['t'])}")
        lines.append("slos:")
        for slo in self.slo_states():
            state = "BURNING" if slo["burning"] else "ok"
            lines.append(
                f"  {slo['slo']}: consumed {_num(slo['consumed'])} of "
                f"{_num(slo['budget'])}/{_num(slo['slo_window'])}s, "
                f"remaining {_num(slo['budget_remaining'])}, "
                f"burn {_num(slo['burn_short'])}x/{_num(slo['burn_long'])}x "
                f"[{state}]"
            )
        hottest = agg.hottest_links(self.top_k)
        if hottest:
            lines.append(f"hottest links (gini {_num(agg.link_gini())}):")
            for rollup in hottest:
                lines.append(
                    f"  {rollup.link}: ewma {_num(rollup.ewma.value)} "
                    f"peak {_num(rollup.peak)} "
                    f"({rollup.samples} samples)"
                )
        open_dark = agg.open_dark_links()
        lines.append(
            f"downtime: {_num(agg.dark_seconds)} link-s over "
            f"{agg.blink_windows} windows"
            + (f", still dark: {', '.join(open_dark)}" if open_dark else "")
        )
        return "\n".join(lines) + "\n"


def _num(value: object) -> str:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if isinstance(value, float) and math.isnan(value):
            return "n/a"
        return f"{value:.4g}"
    return str(value)
