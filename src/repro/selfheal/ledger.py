"""The remediation ledger: an append-only audit of every loop decision.

Every decision the :class:`~repro.selfheal.engine.RemediationEngine`
takes — planned, started, succeeded, failed, or suppressed — lands
here as a :class:`LedgerEntry` carrying the **cause linkage**: the
alert rule that triggered it and the trace time that alert fired
(``alert_t``).  Entries are stamped with the aggregator's trace clock,
never wall time, so replaying the same telemetry trace produces a
byte-identical ledger (the ``heal-smoke`` CI target ``cmp``'s two
replays to prove it).

Serialization follows the HealthReport conventions: schema-tagged
(``flattree.selfheal/1``), NaN-scrubbed, sorted keys, trailing
newline.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Tuple

from repro.obs import scrub_nonfinite

SCHEMA = "flattree.selfheal/1"

STATUS_PLANNED = "planned"
STATUS_STARTED = "started"
STATUS_SUCCEEDED = "succeeded"
STATUS_FAILED = "failed"
STATUS_SUPPRESSED = "suppressed"

STATUSES: Tuple[str, ...] = (
    STATUS_PLANNED, STATUS_STARTED, STATUS_SUCCEEDED,
    STATUS_FAILED, STATUS_SUPPRESSED,
)


@dataclass(frozen=True)
class LedgerEntry:
    """One loop decision, linked back to its causing alert.

    ``rule`` names the alert rule and ``alert_t`` its firing trace
    time — together the cause linkage.  ``reason`` explains failures
    and suppressions (``cooldown``/``budget``/``flap``/``hold``/...);
    ``latency_s`` is the plant latency of a successful action;
    ``detail`` is free-form executor color.
    """

    seq: int
    t: float
    status: str
    action: str
    rule: str
    alert_t: float
    reason: str = ""
    latency_s: float = 0.0
    detail: str = ""


class RemediationLedger:
    """Append-only record of loop decisions with deterministic export."""

    def __init__(self) -> None:
        self.entries: List[LedgerEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, t: float, status: str, action: str, rule: str,
            alert_t: float, reason: str = "", latency_s: float = 0.0,
            detail: str = "") -> LedgerEntry:
        entry = LedgerEntry(
            seq=len(self.entries), t=float(t), status=status,
            action=action, rule=rule, alert_t=float(alert_t),
            reason=reason, latency_s=float(latency_s), detail=detail)
        self.entries.append(entry)
        return entry

    def by_status(self, status: str) -> List[LedgerEntry]:
        return [e for e in self.entries if e.status == status]

    def counts(self) -> Dict[str, int]:
        out = {status: 0 for status in STATUSES}
        for entry in self.entries:
            out[entry.status] = out.get(entry.status, 0) + 1
        return out

    def succeeded_actions(self) -> List[str]:
        """Distinct action kinds that completed, sorted."""
        return sorted({e.action for e in self.by_status(STATUS_SUCCEEDED)})

    def summary(self) -> str:
        counts = self.counts()
        parts = [f"{counts[s]} {s}" for s in STATUSES if counts[s]]
        return (f"{len(self.entries)} ledger entries: "
                f"{', '.join(parts) if parts else 'empty'}")

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "entries": [scrub_nonfinite(asdict(e)) for e in self.entries],
            "counts": self.counts(),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def render_text(self) -> str:
        lines = ["remediation ledger",
                 f"  {'seq':>3}  {'t':>8}  {'status':<10}  {'action':<10}  "
                 f"{'rule':<20}  {'alert_t':>8}  note"]
        for e in self.entries:
            note = e.reason or e.detail
            if e.status == STATUS_SUCCEEDED and e.latency_s:
                note = f"latency {e.latency_s:.3f}s" + (
                    f"; {note}" if note else "")
            lines.append(
                f"  {e.seq:>3}  {e.t:>8.3f}  {e.status:<10}  "
                f"{e.action:<10}  {e.rule:<20}  {e.alert_t:>8.3f}  {note}")
        lines.append(f"  {self.summary()}")
        return "\n".join(lines)
